package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestExpTimeoutKillsHangingExperiment: -exp-timeout bounds the WHOLE
// selected run. A wedged experiment exits non-zero with a watchdog
// diagnosis and a truncation marker, and once the deadline has expired the
// remaining experiments in the selection are skipped (reported failed
// without running) — the flag is a hard wall-clock budget for the run,
// not a per-table allowance.
func TestExpTimeoutKillsHangingExperiment(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	exps := []experiment{
		{"hang", "never returns", func(io.Writer) error { <-release; return nil }},
		{"after", "skipped once the deadline expired", func(w io.Writer) error {
			fmt.Fprintln(w, "after-ran")
			return nil
		}},
	}
	var out, errw bytes.Buffer
	code := run(exps, []string{"-exp", "all", "-exp-timeout", "50ms"}, &out, &errw)
	if code != 4 {
		t.Fatalf("exit %d, want 4 (the distinct watchdog-kill code)\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "watchdog") || !strings.Contains(errw.String(), "hang") {
		t.Fatalf("stderr missing watchdog diagnosis: %s", errw.String())
	}
	if !strings.Contains(out.String(), "killed by watchdog") {
		t.Fatalf("stdout missing truncation marker: %s", out.String())
	}
	if strings.Contains(out.String(), "after-ran") {
		t.Fatal("experiment after the expired deadline ran; -exp-timeout must bound the whole run")
	}
	if !strings.Contains(errw.String(), "after skipped") {
		t.Fatalf("stderr missing skip report for the remaining experiment: %s", errw.String())
	}
	if !strings.Contains(errw.String(), "failed experiments: hang, after") {
		t.Fatalf("failed list should include both the killed and the skipped experiment: %s", errw.String())
	}
}

// TestExpEventBudgetBoundsRunaway: -exp-event-budget reaches engines the
// experiment builds internally, turning an infinite event loop into a
// reported failure; without the flag the same experiment would spin
// forever (so this test IS the proof the flag is wired through).
func TestExpEventBudgetBoundsRunaway(t *testing.T) {
	exps := []experiment{{"spin", "self-rescheduling loop", func(io.Writer) error {
		e := sim.NewEngine()
		var step func()
		step = func() { e.PostAfter(sim.Microsecond, step) }
		e.Schedule(0, step)
		e.Run()
		if e.BudgetExceeded() {
			return errors.New("event budget exceeded")
		}
		return nil
	}}}
	var out, errw bytes.Buffer
	code := run(exps, []string{"-exp", "spin", "-exp-event-budget", "1000"}, &out, &errw)
	if code != 1 || !strings.Contains(errw.String(), "event budget exceeded") {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
}
