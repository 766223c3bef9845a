package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runstate"
	"repro/internal/telemetry"
)

// testExps builds a fast fake experiment table. gate, when non-nil, makes
// the "slow" experiment block until the gate channel closes — the lever
// the drain/cancel/shed tests use to hold a job in the running state.
// failures, when non-nil, makes "flaky" fail (class "error") as long as
// the counter it points to is > 0, decrementing per attempt.
func testExps(gate chan struct{}, failures *int32) []Experiment {
	var mu sync.Mutex
	return []Experiment{
		{Name: "alpha", Desc: "writes a fixed table", Run: func(w io.Writer) error {
			fmt.Fprintln(w, "ALPHA  col1  col2")
			fmt.Fprintln(w, "row    1     2")
			return nil
		}},
		{Name: "beta", Desc: "writes another table", Run: func(w io.Writer) error {
			fmt.Fprintln(w, "BETA  x")
			return nil
		}},
		{Name: "slow", Desc: "blocks until the test releases it", Run: func(w io.Writer) error {
			if gate != nil {
				<-gate
			}
			fmt.Fprintln(w, "SLOW done")
			return nil
		}},
		{Name: "flaky", Desc: "fails while the failure budget lasts", Run: func(w io.Writer) error {
			mu.Lock()
			defer mu.Unlock()
			if failures != nil && *failures > 0 {
				*failures--
				return errors.New("transient fake failure")
			}
			fmt.Fprintln(w, "FLAKY recovered")
			return nil
		}},
		{Name: "poison", Desc: "always dies with a poison class", Run: func(w io.Writer) error {
			return errors.New("sim: event budget exhausted (fake)")
		}},
	}
}

func newTestDaemon(t *testing.T, dir string, mod func(*Config)) *Daemon {
	t.Helper()
	cfg := Config{
		Dir:          dir,
		Experiments:  testExps(nil, nil),
		QueueCap:     8,
		MaxAttempts:  1,
		Parallel:     1,
		RetryBackoff: time.Millisecond,
		Sleep:        func(time.Duration) {},
	}
	if mod != nil {
		mod(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() { d.Close() })
	return d
}

func waitState(t *testing.T, d *Daemon, id string, want State) JobView {
	t.Helper()
	v, err := d.Wait(id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if v.State != want {
		t.Fatalf("job %s ended %s (class %q, err %q), want %s", id, v.State, v.Class, v.Error, want)
	}
	return v
}

func TestJobLifecycleDone(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir, nil)
	id, err := d.Submit(Spec{Exps: []string{"alpha", "beta"}})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, d, id, StateDone)

	out := string(readFile(t, filepath.Join(dir, "jobs", id, jobOutFile)))
	want := "ALPHA  col1  col2\nrow    1     2\n\nBETA  x\n\n"
	if out != want {
		t.Fatalf("out.txt = %q, want %q", out, want)
	}
	if got := runstate.Digest([]byte(out)); got != v.OutDigest {
		t.Fatalf("out digest %s != journaled %s", got, v.OutDigest)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", id, jobMetricsFile)); err != nil {
		t.Fatalf("metrics.json missing: %v", err)
	}
	if v.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", v.Attempts)
	}
}

func TestSpecValidation(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), nil)
	if _, err := d.Submit(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := d.Submit(Spec{Exps: []string{"nonsense"}}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Experiments = testExps(gate, nil)
		c.QueueCap = 2
	})
	// First job occupies the executor; second fills the queue; third sheds.
	if _, err := d.Submit(Spec{Exps: []string{"slow"}}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d)
	if _, err := d.Submit(Spec{Exps: []string{"alpha"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(Spec{Exps: []string{"alpha"}}); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("third submit: %v, want ErrOverCapacity", err)
	}
	if d.met.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", d.met.shed.Load())
	}
}

func TestRetryThenSuccess(t *testing.T) {
	failures := int32(1)
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Experiments = testExps(nil, &failures)
		c.MaxAttempts = 3
	})
	id, err := d.Submit(Spec{Exps: []string{"flaky"}})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, d, id, StateDone)
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one failure, one success)", v.Attempts)
	}
}

// A poison job — every attempt dies with a poison class — is quarantined
// after its attempts, and the daemon keeps serving the next job.
func TestPoisonJobQuarantinedServiceSurvives(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir, func(c *Config) { c.MaxAttempts = 2 })
	pid, err := d.Submit(Spec{Exps: []string{"poison"}})
	if err != nil {
		t.Fatal(err)
	}
	aid, err := d.Submit(Spec{Exps: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, d, pid, StateQuarantined)
	if v.Class != "budget" {
		t.Fatalf("quarantine class = %q, want budget", v.Class)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", v.Attempts)
	}
	waitState(t, d, aid, StateDone)
	if _, err := os.Stat(filepath.Join(dir, "jobs", pid, jobFlightFile)); err != nil {
		t.Fatalf("quarantined job has no flight dump: %v", err)
	}
}

// A job whose failure class is a plain error fails rather than
// quarantines.
func TestPlainErrorFails(t *testing.T) {
	failures := int32(100)
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Experiments = testExps(nil, &failures)
		c.MaxAttempts = 2
	})
	id, err := d.Submit(Spec{Exps: []string{"flaky"}})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, d, id, StateFailed)
	if v.Class != "error" {
		t.Fatalf("class = %q, want error", v.Class)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	d := newTestDaemon(t, t.TempDir(), func(c *Config) { c.Experiments = testExps(gate, nil) })
	if _, err := d.Submit(Spec{Exps: []string{"slow"}}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d)
	id, err := d.Submit(Spec{Exps: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	waitState(t, d, id, StateCancelled)
	if err := d.Cancel(id); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel: %v, want ErrTerminal", err)
	}
	if err := d.Cancel("j9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	d := newTestDaemon(t, t.TempDir(), func(c *Config) { c.Experiments = testExps(gate, nil) })
	id, err := d.Submit(Spec{Exps: []string{"slow"}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d)
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	waitState(t, d, id, StateCancelled)
}

// Drain with an idle queue completes clean; submissions during drain are
// refused.
func TestDrainIdle(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), nil)
	id, err := d.Submit(Spec{Exps: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, id, StateDone)
	if clean := d.Drain(time.Second); !clean {
		t.Fatal("idle drain reported unclean")
	}
	if _, err := d.Submit(Spec{Exps: []string{"alpha"}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
}

// Drain past its deadline checkpoints the running job: no terminal record,
// so a new daemon on the same directory recovers and finishes it — and the
// output is byte-identical to an undisturbed run.
func TestDrainCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	d := newTestDaemon(t, dir, func(c *Config) { c.Experiments = testExps(gate, nil) })
	// Selection resolves in table order (as the CLI's does), so "slow"
	// runs between beta's completion and flaky: the drain checkpoint lands
	// mid-job with two experiments already journaled.
	id, err := d.Submit(Spec{Exps: []string{"alpha", "beta", "slow"}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d)
	if clean := d.Drain(50 * time.Millisecond); clean {
		t.Fatal("drain of a gated job reported clean")
	}
	close(gate) // release the abandoned goroutine
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: the job must come back, resume (alpha restores from the
	// run journal), and complete.
	d2 := newTestDaemon(t, dir, nil)
	v, err := d2.Get(id)
	if err != nil {
		t.Fatalf("job %s lost across restart: %v", id, err)
	}
	if !v.Recovered {
		t.Fatal("job not flagged recovered")
	}
	v = waitState(t, d2, id, StateDone)
	out := string(readFile(t, filepath.Join(dir, "jobs", id, jobOutFile)))
	want := "ALPHA  col1  col2\nrow    1     2\n\nBETA  x\n\nSLOW done\n\n"
	if out != want {
		t.Fatalf("resumed out.txt = %q, want %q", out, want)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one checkpointed, one resumed)", v.Attempts)
	}
}

// Queued (never-started) jobs survive a restart too, in order.
func TestQueuedJobsRecoverInOrder(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	d := newTestDaemon(t, dir, func(c *Config) { c.Experiments = testExps(gate, nil) })
	if _, err := d.Submit(Spec{Exps: []string{"slow"}}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d)
	idA, _ := d.Submit(Spec{Exps: []string{"alpha"}})
	idB, _ := d.Submit(Spec{Exps: []string{"beta"}})
	close(gate)
	d.Drain(50 * time.Millisecond)
	d.Close()

	d2 := newTestDaemon(t, dir, nil)
	for _, id := range []string{idA, idB} {
		waitState(t, d2, id, StateDone)
	}
	views := d2.List()
	if len(views) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(views))
	}
	if views[1].ID != idA || views[2].ID != idB {
		t.Fatalf("submission order lost: %s, %s", views[1].ID, views[2].ID)
	}
}

// A job whose starts keep killing daemons is quarantined at recovery.
func TestCrashLoopQuarantine(t *testing.T) {
	dir := t.TempDir()
	// Forge a journal recording three starts and no terminal state.
	jj, _, err := openJobJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Exps: []string{"alpha"}}
	for _, r := range []jobRecord{
		{Op: opSubmit, ID: "j0001", Spec: spec},
		{Op: opAdmit, ID: "j0001"},
		{Op: opStart, ID: "j0001", Attempt: 1},
		{Op: opStart, ID: "j0001", Attempt: 2},
		{Op: opStart, ID: "j0001", Attempt: 3},
	} {
		if err := jj.append(r); err != nil {
			t.Fatal(err)
		}
	}
	jj.close()

	d := newTestDaemon(t, dir, func(c *Config) { c.CrashLoopLimit = 3 })
	v, err := d.Get("j0001")
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQuarantined || v.Class != "crash-loop" {
		t.Fatalf("crash-looping job recovered as %s/%s, want quarantined/crash-loop", v.State, v.Class)
	}
	// And the quarantine is itself durable.
	d.Close()
	d2 := newTestDaemon(t, dir, nil)
	v, _ = d2.Get("j0001")
	if v.State != StateQuarantined {
		t.Fatalf("quarantine not durable: %s", v.State)
	}
}

// Job-level timeout: a gated job with a tiny timeout is killed by the
// watchdog and quarantined (watchdog is a poison class).
func TestJobTimeoutQuarantines(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	d := newTestDaemon(t, t.TempDir(), func(c *Config) { c.Experiments = testExps(gate, nil) })
	id, err := d.Submit(Spec{Exps: []string{"slow"}, TimeoutMs: 30, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, d, id, StateQuarantined)
	if v.Class != "watchdog" {
		t.Fatalf("class = %q, want watchdog", v.Class)
	}
}

// A job's metrics describe that job alone: two identical jobs killed by
// the watchdog in one daemon commit byte-identical metrics.json, each
// recording exp.watchdog.trips = 1 for the killed experiment.
func TestWatchdogTripsRecordedPerJob(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	dir := t.TempDir()
	d := newTestDaemon(t, dir, func(c *Config) { c.Experiments = testExps(gate, nil) })
	var docs [][]byte
	for i := 0; i < 2; i++ {
		id, err := d.Submit(Spec{Exps: []string{"slow"}, TimeoutMs: 30})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, d, id, StateQuarantined)
		docs = append(docs, readFile(t, filepath.Join(dir, "jobs", id, jobMetricsFile)))
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatalf("identical jobs committed different metrics.json:\nfirst:  %s\nsecond: %s", docs[0], docs[1])
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(docs[0], &snap); err != nil {
		t.Fatal(err)
	}
	trips := 0
	for _, m := range snap.Metrics {
		if m.Name == "exp.watchdog.trips" && m.Labels["exp"] == "slow" && m.Value == 1 {
			trips++
		}
	}
	if trips != 1 {
		t.Fatalf("metrics.json lacks exp.watchdog.trips{exp=slow} = 1: %s", docs[0])
	}
}

// The byte-identity invariant at the package level: a daemon job's out.txt
// matches running the same experiments through a second, undisturbed
// daemon — even when the first run was interrupted between experiments.
func TestInterruptedJobOutputByteIdentical(t *testing.T) {
	want := t.TempDir()
	dw := newTestDaemon(t, want, nil)
	wid, err := dw.Submit(Spec{Exps: []string{"alpha", "beta"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, dw, wid, StateDone)
	wantOut := readFile(t, filepath.Join(want, "jobs", wid, jobOutFile))

	dir := t.TempDir()
	gate := make(chan struct{})
	d := newTestDaemon(t, dir, func(c *Config) { c.Experiments = testExps(gate, nil) })
	id, err := d.Submit(Spec{Exps: []string{"alpha", "beta", "slow"}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, d)
	d.Drain(50 * time.Millisecond) // checkpoint mid-job
	close(gate)
	d.Close()

	d2 := newTestDaemon(t, dir, nil)
	waitState(t, d2, id, StateDone)
	gotOut := readFile(t, filepath.Join(dir, "jobs", id, jobOutFile))
	// The interrupted job ran one extra experiment (slow) at the end;
	// its prefix must still match the undisturbed job byte for byte.
	if !strings.HasPrefix(string(gotOut), string(wantOut)) {
		t.Fatalf("resumed output diverges from undisturbed run:\nwant prefix:\n%s\ngot:\n%s", wantOut, gotOut)
	}
}

func waitRunning(t *testing.T, d *Daemon) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		d.mu.Lock()
		running := d.running != nil && d.running.state == StateRunning
		d.mu.Unlock()
		if running {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no job reached the running state in time")
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
