package service

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/runstate"
	"repro/internal/telemetry"
)

// An experiment the watchdog kills is recorded as
// exp.watchdog.trips{exp=<name>} = 1 in the run's hub: straight into it
// without a journal, and through the journaled mirror that merges back
// with one.
func TestRunExperimentsRecordsWatchdogTrip(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journal=%v", journaled), func(t *testing.T) {
			release := make(chan struct{})
			defer close(release)
			slow := Experiment{Name: "slow", Run: func(io.Writer) error { <-release; return nil }}
			var jr *runstate.Journal
			if journaled {
				var err error
				if jr, err = runstate.Open(t.TempDir(), runstate.OpenOptions{Config: "test"}); err != nil {
					t.Fatal(err)
				}
				defer jr.Close()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
			var states []ExpState
			RunExperiments(ctx, RunConfig{Selection: []Experiment{slow}, Parallel: 1}, tel, jr, io.Discard, io.Discard,
				func(_ string, st ExpState, _ error) { states = append(states, st) })
			if want := []ExpState{ExpRunning, ExpFailed}; !reflect.DeepEqual(states, want) {
				t.Fatalf("states %v, want %v", states, want)
			}
			trips := 0
			for _, m := range tel.Metrics.Snapshot().Metrics {
				if m.Name != "exp.watchdog.trips" {
					continue
				}
				trips++
				if m.Labels["exp"] != "slow" || m.Value != 1 {
					t.Errorf("trip series %+v, want exp.watchdog.trips{exp=slow} = 1", m)
				}
			}
			if trips != 1 {
				t.Fatalf("%d exp.watchdog.trips series, want 1", trips)
			}
		})
	}
}
