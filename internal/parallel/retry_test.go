package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runstate"
	"repro/internal/telemetry"
)

// noSleep collects requested backoff delays instead of waiting them out.
func noSleep(into *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *into = append(*into, d) }
}

// A flaky point succeeds on a later attempt: the sweep completes clean,
// each attempt is handed a hub of its own, the failed attempts' partial
// telemetry is discarded (only the successful attempt's observations
// merge), and the retries backed off.
func TestRetryFlakyPointSucceeds(t *testing.T) {
	hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	var tries atomic.Int32
	var delays []time.Duration
	attempts := map[*telemetry.Telemetry]bool{}
	pts := []Point{
		{Name: "stable", Body: func(tel *telemetry.Telemetry) error { sweepPoint(tel, 0); return nil }},
		{Name: "flaky", Body: func(tel *telemetry.Telemetry) error {
			attempts[tel] = true
			sweepPoint(tel, 1) // observes even on the failing attempts
			if tries.Add(1) < 3 {
				return errors.New("transient wobble")
			}
			return nil
		}},
	}
	err := Run(pts, Options{Workers: 1, Hub: hub, Retry: RetryPolicy{
		MaxAttempts: 3, BaseBackoff: time.Millisecond, Sleep: noSleep(&delays),
	}})
	if err != nil {
		t.Fatalf("flaky point failed despite retries: %v", err)
	}
	if got := tries.Load(); got != 3 {
		t.Fatalf("flaky point ran %d times, want 3", got)
	}
	if len(delays) != 2 {
		t.Fatalf("%d backoff sleeps, want 2", len(delays))
	}
	if len(attempts) != 3 || attempts[hub] || attempts[nil] {
		t.Fatalf("3 attempts were handed %d distinct hubs (the pool hub among them: %v), want 3 mirrors", len(attempts), attempts[hub])
	}

	// The merged output must equal a run where every point succeeded
	// first try — failed attempts ran in discarded mirror hubs.
	ref := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	refPts := []Point{
		{Name: "stable", Body: func(tel *telemetry.Telemetry) error { sweepPoint(tel, 0); return nil }},
		{Name: "flaky", Body: func(tel *telemetry.Telemetry) error { sweepPoint(tel, 1); return nil }},
	}
	if err := Run(refPts, Options{Workers: 1, Hub: ref}); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := hub.Metrics.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Metrics.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("retried run's registry differs from a clean run:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
	}
}

// A point that never succeeds is quarantined: the sweep completes, the
// other points merge, and the error tree carries a *QuarantinedError with
// the classified failure.
func TestQuarantineExcludesPoisonPoint(t *testing.T) {
	hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Recorder: telemetry.NewRecorder(false)}
	var delays []time.Duration
	pts := []Point{
		{Name: "ok[0]", Body: func(tel *telemetry.Telemetry) error { sweepPoint(tel, 0); return nil }},
		{Name: "poison", Body: func(*telemetry.Telemetry) error { panic("synthetic panic") }},
		{Name: "ok[1]", Body: func(tel *telemetry.Telemetry) error { sweepPoint(tel, 1); return nil }},
	}
	err := Run(pts, Options{Workers: 2, Hub: hub, Retry: RetryPolicy{
		MaxAttempts: 2, Quarantine: true, BaseBackoff: time.Millisecond, Sleep: noSleep(&delays),
	}})
	if err == nil {
		t.Fatal("quarantined sweep reported success")
	}
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("error tree lacks *QuarantinedError: %v", err)
	}
	if qe.Point != "poison" || qe.Attempts != 2 || qe.Class != "panic" {
		t.Fatalf("quarantine = %+v, want point=poison attempts=2 class=panic", qe)
	}
	if len(delays) != 1 {
		t.Fatalf("%d backoff sleeps, want 1 (between the two attempts)", len(delays))
	}

	// The two healthy points merged exactly as if the poison point never
	// existed as an observer.
	ref := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Recorder: telemetry.NewRecorder(false)}
	refPts := []Point{
		{Name: "ok[0]", Body: func(tel *telemetry.Telemetry) error { sweepPoint(tel, 0); return nil }},
		{Name: "ok[1]", Body: func(tel *telemetry.Telemetry) error { sweepPoint(tel, 1); return nil }},
	}
	if err := Run(refPts, Options{Workers: 1, Hub: ref}); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := hub.Metrics.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Metrics.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("quarantined point leaked telemetry into the merge:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
	}
}

// Without quarantine, exhausted retries fail the sweep the classic way:
// the error is the point's own, and its telemetry still merges (legacy
// single-attempt behavior preserved).
func TestRetryExhaustionWithoutQuarantineFailsClassic(t *testing.T) {
	hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	var delays []time.Duration
	pts := []Point{{Name: "doomed", Body: func(*telemetry.Telemetry) error { return errors.New("hard failure") }}}
	err := Run(pts, Options{Workers: 1, Hub: hub, Retry: RetryPolicy{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, Sleep: noSleep(&delays),
	}})
	if err == nil || !strings.Contains(err.Error(), "hard failure") {
		t.Fatalf("err = %v, want the point's own error", err)
	}
	var qe *QuarantinedError
	if errors.As(err, &qe) {
		t.Fatal("quarantine error without Quarantine enabled")
	}
}

func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	pol := RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 7}
	for attempt := 1; attempt <= 8; attempt++ {
		a := pol.Backoff("point:x", attempt)
		b := pol.Backoff("point:x", attempt)
		if a != b {
			t.Fatalf("attempt %d: delay not deterministic (%v vs %v)", attempt, a, b)
		}
		if a <= 0 || a > time.Second {
			t.Fatalf("attempt %d: delay %v outside (0, max]", attempt, a)
		}
	}
	// Jitter separates points; exponent grows the base.
	if pol.Backoff("point:x", 1) == pol.Backoff("point:y", 1) {
		t.Log("note: two points drew identical jitter (possible but unlikely)")
	}
	if pol.Backoff("point:x", 5) < pol.Backoff("point:x", 1)/2 {
		t.Fatal("later attempts did not back off")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{&panicError{val: "boom"}, "panic"},
		{fmt.Errorf("wrapped: %w", &panicError{val: "boom"}), "panic"},
		{errors.New("netsim: sim event budget exhausted after 10 events"), "budget"},
		{errors.New("experiment x: watchdog tripped: deadline"), "watchdog"},
		{errors.New("plain failure"), "error"},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// The journal integration: a first run persists every completed point; a
// second run over the same journal restores them (slots and telemetry)
// without re-running, and produces identical registry bytes.
func TestJournalRestoreSkipsCompletedPoints(t *testing.T) {
	dir := t.TempDir()
	j, err := runstate.Open(dir, runstate.OpenOptions{Config: "test"})
	if err != nil {
		t.Fatal(err)
	}

	type rowT struct{ V int }
	build := func(reruns *atomic.Int32) ([]Point, []rowT, *telemetry.Telemetry) {
		rows := make([]rowT, 4)
		pts := make([]Point, 4)
		for i := range pts {
			i := i
			pts[i] = Point{
				Name: fmt.Sprintf("p[%d]", i),
				Spec: fmt.Sprintf("spec %d", i),
				Seed: int64(i),
				Slot: &rows[i],
				Body: func(tel *telemetry.Telemetry) error {
					if reruns != nil {
						reruns.Add(1)
					}
					sweepPoint(tel, i)
					rows[i] = rowT{V: i * i}
					return nil
				},
			}
		}
		hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
		return pts, rows, hub
	}

	pts, rows1, hub1 := build(nil)
	if err := Run(pts, Options{Workers: 2, Hub: hub1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Reopen as a resume and run the same sweep: nothing re-executes.
	r, err := runstate.Open(dir, runstate.OpenOptions{Config: "test", Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var reruns atomic.Int32
	pts2, rows2, hub2 := build(&reruns)
	if err := Run(pts2, Options{Workers: 2, Hub: hub2, Journal: r}); err != nil {
		t.Fatal(err)
	}
	if n := reruns.Load(); n != 0 {
		t.Fatalf("%d points re-ran on resume, want 0", n)
	}
	for i := range rows2 {
		if rows2[i] != rows1[i] {
			t.Fatalf("slot %d restored as %+v, want %+v", i, rows2[i], rows1[i])
		}
	}
	var a, b bytes.Buffer
	if err := hub1.Metrics.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := hub2.Metrics.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("restored registry differs from the original:\n%s\nvs\n%s", b.Bytes(), a.Bytes())
	}
}

// A quarantined point re-enqueues on resume — and when it succeeds this
// time, the sweep completes clean.
func TestResumeAfterQuarantineReRunsPoint(t *testing.T) {
	dir := t.TempDir()
	j, err := runstate.Open(dir, runstate.OpenOptions{Config: "test"})
	if err != nil {
		t.Fatal(err)
	}
	var delays []time.Duration
	hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	fail := true
	mk := func() []Point {
		return []Point{
			{Name: "good", Body: func(tel *telemetry.Telemetry) error { sweepPoint(tel, 0); return nil }},
			{Name: "sick", Body: func(tel *telemetry.Telemetry) error {
				if fail {
					return errors.New("env broken")
				}
				sweepPoint(tel, 1)
				return nil
			}},
		}
	}
	err = Run(mk(), Options{Workers: 1, Hub: hub, Journal: j, Retry: RetryPolicy{
		MaxAttempts: 2, Quarantine: true, BaseBackoff: time.Millisecond, Sleep: noSleep(&delays),
	}})
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("first run: %v, want quarantine", err)
	}
	j.Close()

	r, err := runstate.Open(dir, runstate.OpenOptions{Config: "test", Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Status("point:sick"); st.Done || !st.Quarantined {
		t.Fatalf("sick status after resume: %+v, want quarantined and not done", st)
	}
	fail = false // the environment healed
	hub2 := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	if err := Run(mk(), Options{Workers: 1, Hub: hub2, Journal: r, Retry: RetryPolicy{
		MaxAttempts: 2, Quarantine: true, BaseBackoff: time.Millisecond, Sleep: noSleep(&delays),
	}}); err != nil {
		t.Fatalf("resumed run still failing: %v", err)
	}
	if st := r.Status("point:sick"); !st.Done || st.Quarantined {
		t.Fatalf("sick status after recovery: %+v, want done", st)
	}
}
