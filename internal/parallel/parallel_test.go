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
// through the ambient hub (instance labels, counters, a histogram) the way
// instrumented simulator components do.
func sweepPoint(i int) {
	hub := telemetry.Hub()
	reg := hub.Reg()
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
		pts[i] = Point{Name: fmt.Sprintf("p[%d]", i), Run: func() error { sweepPoint(i); return nil }}
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

func TestRunAllPointsExecute(t *testing.T) {
	var ran atomic.Int64
	pts := make([]Point, 20)
	for i := range pts {
		pts[i] = Point{Run: func() error { ran.Add(1); return nil }}
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
		{Name: "ok", Run: func() error { return nil }},
		{Name: "bad-a", Run: func() error { return boom }},
		{Name: "bad-b", Run: func() error { return errors.New("other") }},
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
		{Name: "explode", Run: func() error { panic("kaboom") }},
		{Name: "fine", Run: func() error { return nil }},
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
		pts[i] = Point{Name: fmt.Sprintf("p%d", i), Run: func() error { return nil }}
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

// A nil destination hub must mask any process-wide hub from the points:
// the pool owns its workers' telemetry scope.
func TestRunNilHubMasksProcessHub(t *testing.T) {
	proc := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	telemetry.WithDefault(proc, func() {
		pts := []Point{{Run: func() error {
			if telemetry.Hub() != nil {
				return errors.New("point observed the process hub through a nil pool hub")
			}
			return nil
		}}}
		// Two workers so the point runs on a pool goroutine under WithHub.
		if err := Run(append(pts, Point{Run: func() error { return nil }}), Options{Workers: 2}); err != nil {
			t.Error(err)
		}
	})
	if proc.Metrics.Len() != 0 {
		t.Error("points leaked series into the masked process hub")
	}
}

// Only a hub whose recorder exports keeps its points on the caller's hub,
// in order: traces cannot be merged. A hub whose recorder keeps just its
// flight ring — every run's — still fans out into point-local mirrors, all
// writing to the one shared ring.
func TestRunPointsInPlaceOnlyUnderExportingRecorder(t *testing.T) {
	for _, export := range []bool{false, true} {
		hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Recorder: telemetry.NewRecorder(export)}
		var inPlace, sharedRing atomic.Int32
		pts := make([]Point, 4)
		for i := range pts {
			pts[i] = Point{Name: fmt.Sprintf("p[%d]", i), Run: func() error {
				if h := telemetry.Hub(); h == hub {
					inPlace.Add(1)
				} else if h.Rec() == hub.Recorder {
					sharedRing.Add(1)
				}
				return nil
			}}
		}
		var err error
		telemetry.WithHub(hub, func() { err = Run(pts, Options{Workers: 4, Hub: hub}) })
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int32{false: 0, true: 4}[export]; inPlace.Load() != want || inPlace.Load()+sharedRing.Load() != 4 {
			t.Errorf("exporting %v: %d points on the caller's hub, %d on mirrors sharing its ring; want %d and %d",
				export, inPlace.Load(), sharedRing.Load(), want, 4-want)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(nil, Options{}); err != nil {
		t.Fatal(err)
	}
}
