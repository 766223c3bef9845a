package experiments

import (
	"errors"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// A sweep with a panicking point under a quarantine policy: the point is
// retried, then quarantined; the other points complete and fill their
// slots; the sweep's hub carries the exp.quarantined marker; the joined
// error names the poison point.
func TestSweepQuarantinesPanickingPoint(t *testing.T) {
	prevPol := RetryPolicy()
	SetRetryPolicy(parallel.RetryPolicy{
		MaxAttempts: 2, Quarantine: true,
		BaseBackoff: time.Millisecond, Sleep: func(time.Duration) {},
	})
	defer SetRetryPolicy(prevPol)
	prevW := SetParallelism(2)
	defer SetParallelism(prevW)

	hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Recorder: telemetry.NewRecorder(false)}
	rows := make([]int, 4)
	err := runPointsSlot(hub, "poisoned", len(rows),
		func(i int) any { return &rows[i] },
		nil,
		func(i int, tel *telemetry.Telemetry) error {
			if i == 2 {
				panic("synthetic point panic")
			}
			rows[i] = i + 1
			newTable(tel.Reg(), "", col{label: "i"}, col{metric: "exp.poisoned.value"}).AddRow(i, i+1)
			return nil
		})

	var qe *parallel.QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("sweep error lacks quarantine: %v", err)
	}
	if qe.Point != "poisoned[2]" || qe.Class != "panic" || qe.Attempts != 2 {
		t.Fatalf("quarantine = %+v, want poisoned[2] after 2 panic attempts", qe)
	}
	for i, want := range []int{1, 2, 0, 4} {
		if rows[i] != want {
			t.Fatalf("rows = %v, want the healthy points filled and the poison slot zero", rows)
		}
	}

	found := false
	for _, m := range hub.Metrics.Snapshot().Metrics {
		if m.Name == "exp.quarantined" {
			found = true
			if m.Value != 2 {
				t.Fatalf("exp.quarantined = %g, want the attempt count 2", m.Value)
			}
		}
	}
	if !found {
		t.Fatal("exp.quarantined marker missing from the sweep's hub")
	}
}

// The zero policy keeps classic behavior: a failing point fails the sweep
// on its first attempt, with no quarantine in the error tree.
func TestSweepZeroPolicySingleAttempt(t *testing.T) {
	hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	tries := 0
	err := runPointsSlot(hub, "classic", 1, nil, nil, func(int, *telemetry.Telemetry) error {
		tries++
		return errors.New("plain failure")
	})
	if err == nil || tries != 1 {
		t.Fatalf("tries=%d err=%v, want one failing attempt", tries, err)
	}
	var qe *parallel.QuarantinedError
	if errors.As(err, &qe) {
		t.Fatal("zero policy produced a quarantine")
	}
}
