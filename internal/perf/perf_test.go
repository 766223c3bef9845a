package perf

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// snapshotValue finds one series in the plane's registry snapshot.
func snapshotValue(t *testing.T, p *Plane, name string, labels map[string]string) (float64, bool) {
	t.Helper()
	for _, m := range p.Registry().Snapshot().Metrics {
		if m.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if m.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return m.Value, true
		}
	}
	return 0, false
}

func TestMemDeltaMath(t *testing.T) {
	before := &runtime.MemStats{Mallocs: 100, TotalAlloc: 1000, NumGC: 2, PauseTotalNs: 50}
	after := &runtime.MemStats{Mallocs: 150, TotalAlloc: 1900, NumGC: 5, PauseTotalNs: 80}
	d := memDelta(before, after)
	if d.Mallocs != 50 || d.AllocBytes != 900 || d.GCCycles != 3 || d.GCPauseNs != 30 {
		t.Errorf("memDelta = %+v, want {50 900 3 30}", d)
	}
	// Crossed snapshots must yield zeros, never wrapped uint64 garbage.
	if d := memDelta(after, before); d != (MemDelta{}) {
		t.Errorf("crossed memDelta = %+v, want zeros", d)
	}
	if d := memDelta(before, before); d != (MemDelta{}) {
		t.Errorf("self memDelta = %+v, want zeros", d)
	}
}

// TestMeterWindowing drives a meter's hook directly with synthetic
// dispatches: nothing reaches the plane before a window completes, exactly
// window-granular totals reach it after, and the same-timestamp batch
// accounting closes batches on timestamp changes.
func TestMeterWindowing(t *testing.T) {
	p := New()
	m := &Meter{plane: p}

	// 5 events at t=1, 3 at t=2, then distinct timestamps to fill the
	// window: the t=1 batch of 5 is the largest closed batch.
	at := func(ps int64) { m.hook(sim.Time(ps), 0, 0) }
	for i := 0; i < 5; i++ {
		at(1)
	}
	for i := 0; i < 3; i++ {
		at(2)
	}
	for i := 0; i < MeterWindow-9; i++ {
		at(int64(10 + i))
	}
	if got := p.events.Load(); got != 0 {
		t.Fatalf("flushed events before window completes = %d, want 0", got)
	}
	at(99999) // MeterWindow-th event: triggers the flush
	if got := p.events.Load(); got != MeterWindow {
		t.Errorf("flushed events = %d, want %d", got, MeterWindow)
	}
	if got := p.batchMax.Load(); got != 5 {
		t.Errorf("batch max = %d, want 5", got)
	}
	// Batch sizes were 5, 3, then 1015 singletons, then the flushing
	// event's own batch — every batch except that last open one has been
	// closed by a timestamp change.
	if got := p.batches.Load(); got != uint64(2+MeterWindow-9) {
		t.Errorf("batches = %d, want %d", got, 2+MeterWindow-9)
	}
	if p.wallNs.Load() < 0 {
		t.Errorf("sampled wall ns = %d, want >= 0", p.wallNs.Load())
	}

	// A second partial window stays unflushed: totals are deterministic at
	// window granularity.
	for i := 0; i < 100; i++ {
		at(int64(200000 + i))
	}
	if got := p.events.Load(); got != MeterWindow {
		t.Errorf("events after partial second window = %d, want %d", got, MeterWindow)
	}
}

// TestMeterOnEngine pins the end-to-end contract: whatever an engine fires
// under Run is flushed when that call returns, however it ends — full
// windows, the tail window, and engines too short to fill one — so the
// plane's event and batch totals are exact, regardless of wall-clock
// behavior.
func TestMeterOnEngine(t *testing.T) {
	p := New()
	eng := sim.NewEngine()
	p.AttachMeter(eng)
	total := 2*MeterWindow + 100
	for i := 0; i < total; i++ {
		fn := func() {}
		if i == MeterWindow/2 {
			fn = func() { eng.SetEventBudget(eng.Fired()) } // a budget stop
		}
		eng.Schedule(sim.Time(i), fn)
	}
	eng.Run()
	if got, want := p.events.Load(), eng.Fired(); got != want || want != MeterWindow/2+1 {
		t.Errorf("metered events after a budget stop = %d, engine fired %d", got, want)
	}
	eng.SetEventBudget(0)
	eng.Run()
	if eng.Fired() != uint64(total) {
		t.Fatalf("engine fired %d, want %d", eng.Fired(), total)
	}
	short := sim.NewEngine() // never completes a window
	p.AttachMeter(short)
	for i := 0; i < 7; i++ {
		short.Post(5, func() {})
	}
	short.Run()
	if got := p.events.Load(); got != uint64(total+7) {
		t.Errorf("metered events = %d, want %d", got, total+7)
	}
	if v, ok := snapshotValue(t, p, "perf.engine.events", nil); !ok || v != float64(total+7) {
		t.Errorf("perf.engine.events = %v (present %v), want %d", v, ok, total+7)
	}
	// Distinct timestamps on the first engine, one 7-event batch on the second.
	if got := p.batches.Load(); got != uint64(total+1) {
		t.Errorf("batches = %d, want %d", got, total+1)
	}
	if got := p.batchMax.Load(); got != 7 {
		t.Errorf("batch max = %d, want 7", got)
	}
}

// AttachMeter and Attach must be no-ops on nil planes/engines rather than
// panicking: construction sites call them unconditionally.
func TestMeterNilSafety(t *testing.T) {
	var p *Plane
	p.AttachMeter(sim.NewEngine())
	New().AttachMeter(nil)
	Disable()
	Attach(sim.NewEngine()) // plane off: must not install a hook or panic
}

func TestPhase(t *testing.T) {
	p := New()
	ran := false
	if err := p.phase("unit", func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("phase did not run fn")
	}
	lbl := map[string]string{"phase": "unit"}
	for _, name := range []string{"perf.phase.wall_s", "perf.phase.allocs", "perf.phase.alloc_bytes"} {
		if _, ok := snapshotValue(t, p, name, lbl); !ok {
			t.Errorf("series %s{phase=unit} missing after phase", name)
		}
	}
	// Nil plane degenerates to a plain call.
	var nilPlane *Plane
	if err := nilPlane.phase("x", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// Phase (the package-level wrapper) must run fn and return its error even
// with the plane disabled — the pprof label does not depend on the plane.
func TestPhaseDisabled(t *testing.T) {
	Disable()
	ran := false
	if err := Phase("off", func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("Phase with plane off: ran=%v err=%v", ran, err)
	}
}

func TestPool(t *testing.T) {
	p := New()
	p.PoolPoint(0, 10_000_000, 30_000_000) // 10ms wait, 30ms busy
	p.PoolPoint(1, 0, 10_000_000)
	p.PoolRun(40_000_000, 5_000_000)
	if v, ok := snapshotValue(t, p, "perf.pool.points", nil); !ok || v != 2 {
		t.Errorf("perf.pool.points = %v (present %v), want 2", v, ok)
	}
	if v, ok := snapshotValue(t, p, "perf.pool.worker_busy_s", map[string]string{"worker": "0"}); !ok || v != 0.03 {
		t.Errorf("perf.pool.worker_busy_s{worker=0} = %v (present %v), want 0.03", v, ok)
	}
	// Utilization: worker 0 was busy 30ms of the 40ms pool wall.
	if v, ok := snapshotValue(t, p, "perf.pool.worker_util", map[string]string{"worker": "0"}); !ok || v != 0.75 {
		t.Errorf("perf.pool.worker_util{worker=0} = %v (present %v), want 0.75", v, ok)
	}
	if v, ok := snapshotValue(t, p, "perf.pool.merge_stall_s", nil); !ok || v != 0.005 {
		t.Errorf("perf.pool.merge_stall_s = %v (present %v), want 0.005", v, ok)
	}
	// Nil plane: all pool methods are no-ops.
	var nilPlane *Plane
	nilPlane.PoolPoint(0, 1, 1)
	nilPlane.PoolRun(1, 1)
}

func TestEnableDisable(t *testing.T) {
	Disable()
	if Active() != nil {
		t.Fatal("Active() != nil after Disable")
	}
	p := Enable()
	defer Disable()
	if Active() != p {
		t.Fatal("Active() != Enable() result")
	}
}

func TestDocumentAndTotals(t *testing.T) {
	p := New()
	doc := p.Document()
	if doc.Schema != DocumentSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, DocumentSchema)
	}
	if doc.Build.GoVersion != runtime.Version() {
		t.Errorf("build go version = %q, want %q", doc.Build.GoVersion, runtime.Version())
	}
	names := map[string]bool{}
	for _, m := range doc.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"perf.run.events_per_s", "perf.run.allocs_per_event",
		"perf.mem.heap_peak_bytes", "perf.engine.events", "perf.pool.runs"} {
		if !names[want] {
			t.Errorf("document missing series %s", want)
		}
	}

	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Document
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("WriteJSON output does not round-trip: %v", err)
	}
	if round.Schema != DocumentSchema {
		t.Errorf("round-tripped schema = %q", round.Schema)
	}

	tot := p.Totals()
	if tot.HeapPeakBytes == 0 {
		t.Error("Totals().HeapPeakBytes = 0; the construction-time snapshot should have seeded it")
	}
	if s := p.Summary(); !strings.Contains(s, "events/s") || !strings.Contains(s, "allocs/event") {
		t.Errorf("Summary() = %q, missing headline fields", s)
	}
}

// The perf registry must stay disjoint from the deterministic telemetry
// plane: enabling it must not touch the process hub's registry.
func TestPlaneDoesNotTouchHub(t *testing.T) {
	hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	telemetry.WithDefault(hub, func() {
		p := Enable()
		defer Disable()
		eng := sim.NewEngine()
		p.AttachMeter(eng)
		for i := 0; i < 2*MeterWindow; i++ {
			eng.Schedule(sim.Time(i), func() {})
		}
		eng.Run()
		if err := p.phase("sweep", func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	for _, m := range hub.Metrics.Snapshot().Metrics {
		if strings.HasPrefix(m.Name, "perf.") {
			t.Errorf("perf series %s leaked into the telemetry hub registry", m.Name)
		}
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q, want %q", b.GoVersion, runtime.Version())
	}
	if b.Module == "" || b.Version == "" || b.Revision == "" {
		t.Errorf("build fields must degrade to \"unknown\", not empty: %+v", b)
	}
	if s := b.String(); !strings.Contains(s, b.GoVersion) {
		t.Errorf("String() = %q, missing go version", s)
	}
}
