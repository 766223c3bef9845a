package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

// sweepPoint simulates one experiment point: it registers per-point series
// through the hub it is handed (instance labels, counters, a histogram) the
// way instrumented simulator components do.
func sweepPoint(tel *telemetry.Telemetry, i int) {
	reg := tel.Reg()
	if reg == nil {
		return
	}
	inst := reg.InstanceLabel("net")
	reg.Counter("pkts", inst, telemetry.L("point", fmt.Sprintf("%d", i))).Add(uint64(10 + i))
	g := reg.Gauge("depth", inst)
	g.Set(int64(2 * i))
	g.Set(int64(i))
	h := reg.Histogram("lat", inst)
	for v := 0; v <= i; v++ {
		h.Observe(float64(v))
	}
	reg.Set("exp.point.value", float64(i*i), telemetry.L("point", fmt.Sprintf("%d", i)))
}

func sweepJSON(t *testing.T, workers int) []byte {
	t.Helper()
	hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	pts := make([]Point, 7)
	for i := range pts {
		i := i
		pts[i] = Point{Name: fmt.Sprintf("p[%d]", i), Body: func(tel *telemetry.Telemetry) error { sweepPoint(tel, i); return nil }}
	}
	if err := Run(pts, Options{Workers: workers, Hub: hub}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hub.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The engine's core guarantee: pool width never changes output bytes.
func TestRunDeterministicAcrossWidths(t *testing.T) {
	ref := sweepJSON(t, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := sweepJSON(t, workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d changed the registry JSON:\n%s\nvs sequential:\n%s", workers, got, ref)
		}
	}
}

// Every point runs, whether it sets Body or the bench-only Run.
func TestRunAllPointsExecute(t *testing.T) {
	var ran atomic.Int64
	pts := make([]Point, 20)
	for i := range pts {
		pts[i] = Point{Body: func(*telemetry.Telemetry) error { ran.Add(1); return nil }}
		if i%2 == 1 {
			pts[i] = Point{Run: func() error { ran.Add(1); return nil }}
		}
	}
	if err := Run(pts, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 20 {
		t.Errorf("ran %d points, want 20", ran.Load())
	}
}

func TestRunJoinsErrorsInPointOrder(t *testing.T) {
	boom := errors.New("boom")
	pts := []Point{
		{Name: "ok", Body: func(*telemetry.Telemetry) error { return nil }},
		{Name: "bad-a", Body: func(*telemetry.Telemetry) error { return boom }},
		{Name: "bad-b", Body: func(*telemetry.Telemetry) error { return errors.New("other") }},
	}
	err := Run(pts, Options{Workers: 3})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, boom) {
		t.Error("joined error lost the point's cause")
	}
	msg := err.Error()
	if !strings.Contains(msg, "bad-a: boom") || !strings.Contains(msg, "bad-b: other") {
		t.Errorf("error missing point names: %q", msg)
	}
	if strings.Index(msg, "bad-a") > strings.Index(msg, "bad-b") {
		t.Errorf("errors not in point order: %q", msg)
	}
}

func TestRunCapturesPanics(t *testing.T) {
	pts := []Point{
		{Name: "explode", Body: func(*telemetry.Telemetry) error { panic("kaboom") }},
		{Name: "fine", Body: func(*telemetry.Telemetry) error { return nil }},
	}
	err := Run(pts, Options{Workers: 2})
	if err == nil {
		t.Fatal("panicking point did not surface as an error")
	}
	if !strings.Contains(err.Error(), "explode") || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error missing panic context: %v", err)
	}
}

func TestRunOnDoneSerializedAndComplete(t *testing.T) {
	var mu atomic.Int64
	seen := make([]bool, 9)
	var lastDone int
	pts := make([]Point, len(seen))
	for i := range pts {
		i := i
		pts[i] = Point{Name: fmt.Sprintf("p%d", i), Body: func(*telemetry.Telemetry) error { return nil }}
	}
	err := Run(pts, Options{Workers: 3, OnDone: func(done, total int, name string, err error) {
		if mu.Add(1) != 1 {
			t.Error("OnDone not serialized")
		}
		defer mu.Add(-1)
		if total != len(seen) {
			t.Errorf("total = %d, want %d", total, len(seen))
		}
		if done != lastDone+1 {
			t.Errorf("done = %d after %d, want monotone +1", done, lastDone)
		}
		lastDone = done
		var idx int
		fmt.Sscanf(name, "p%d", &idx)
		seen[idx] = true
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("OnDone never reported point %d", i)
		}
	}
}

// A nil destination hub hands every point a nil hub: the process hub a
// harness installed is never where a point observes.
func TestRunNilHubMasksProcessHub(t *testing.T) {
	proc := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	var handed atomic.Int32
	telemetry.WithDefault(proc, func() {
		pts := make([]Point, 2)
		for i := range pts {
			pts[i] = Point{Body: func(tel *telemetry.Telemetry) error {
				if tel != nil {
					handed.Add(1)
				}
				sweepPoint(tel, i)
				return nil
			}}
		}
		if err := Run(pts, Options{Workers: 2}); err != nil {
			t.Error(err)
		}
	})
	if handed.Load() != 0 {
		t.Errorf("%d points were handed a hub under a nil pool hub, want 0", handed.Load())
	}
	if proc.Metrics.Len() != 0 {
		t.Error("points leaked series into the process hub")
	}
}

// Only a hub whose recorder exports is handed to its points itself, in
// order: traces cannot be merged. A hub whose recorder keeps just its
// flight ring — every run's — hands each point its own mirror, all writing
// to the one shared ring.
func TestRunPointsInPlaceOnlyUnderExportingRecorder(t *testing.T) {
	for _, export := range []bool{false, true} {
		hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Recorder: telemetry.NewRecorder(export)}
		handed := make([]*telemetry.Telemetry, 4)
		pts := make([]Point, len(handed))
		for i := range pts {
			pts[i] = Point{Name: fmt.Sprintf("p[%d]", i), Body: func(tel *telemetry.Telemetry) error {
				handed[i] = tel
				return nil
			}}
		}
		if err := Run(pts, Options{Workers: 4, Hub: hub}); err != nil {
			t.Fatal(err)
		}
		seen := map[*telemetry.Telemetry]bool{}
		for i, tel := range handed {
			switch {
			case export && tel != hub:
				t.Errorf("exporting: point %d was handed %p, want the pool hub %p", i, tel, hub)
			case !export && (tel == hub || tel.Rec() != hub.Recorder || seen[tel]):
				t.Errorf("flight ring only: point %d was handed %p, want a mirror of its own sharing the pool hub's ring", i, tel)
			}
			seen[tel] = true
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(nil, Options{}); err != nil {
		t.Fatal(err)
	}
}
