package pipeline

import (
	"testing"

	"repro/internal/packet"
)

func TestObserverSequence(t *testing.T) {
	cfg := DefaultRMTConfig()
	cfg.Stages = 3
	p, _ := newTestPipeline(t, cfg)
	var rec Recorder
	p.SetObserver(rec.Observe)
	prog := &Program{Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error {
			ctx.Decoded.KV.Op = packet.KVHit
			ctx.Modified = true
			return nil
		},
	}}
	ctx, err := p.Process(kvPacket(1), prog)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(ctx)
	// parsed, 3 stages, deparsed, done.
	if len(rec.Events) != 6 {
		t.Fatalf("events = %d: %v", len(rec.Events), rec.Events)
	}
	if rec.Events[0].Kind != EvParsed || rec.Events[4].Kind != EvDeparsed || rec.Events[5].Kind != EvDone {
		t.Errorf("sequence: %v", rec.Events)
	}
	stages := rec.Stages()
	if len(stages) != 3 || stages[0] != 0 || stages[2] != 2 {
		t.Errorf("stages = %v", stages)
	}
	// Cycles strictly increase until Done (which repeats the final count).
	for i := 1; i < len(rec.Events)-1; i++ {
		if rec.Events[i].Cycles <= rec.Events[i-1].Cycles {
			t.Errorf("cycles not increasing at %d: %v", i, rec.Events)
		}
	}
}

func TestObserverDropStopsEarly(t *testing.T) {
	cfg := DefaultRMTConfig()
	cfg.Stages = 4
	p, _ := newTestPipeline(t, cfg)
	var rec Recorder
	p.SetObserver(rec.Observe)
	prog := &Program{Funcs: []StageFunc{
		nil,
		func(s *Stage, ctx *Context) error { ctx.Verdict = VerdictDrop; return nil },
	}}
	ctx, err := p.Process(kvPacket(1), prog)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(ctx)
	stages := rec.Stages()
	if len(stages) != 2 {
		t.Errorf("dropped packet visited %v", stages)
	}
	last := rec.Events[len(rec.Events)-1]
	if last.Kind != EvDone || last.Verdict != VerdictDrop {
		t.Errorf("final event %v", last)
	}
}

func TestObserverClearedAndReset(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	var rec Recorder
	p.SetObserver(rec.Observe)
	ctx, _ := p.Process(kvPacket(1), nil)
	p.Release(ctx)
	if len(rec.Events) == 0 {
		t.Fatal("no events recorded")
	}
	rec.Reset()
	p.SetObserver(nil)
	ctx, _ = p.Process(kvPacket(1), nil)
	p.Release(ctx)
	if len(rec.Events) != 0 {
		t.Error("events recorded after observer cleared")
	}
}

func TestEventStrings(t *testing.T) {
	for _, k := range []EventKind{EvParsed, EvStage, EvDeparsed, EvDone, EventKind(42)} {
		if k.String() == "" {
			t.Errorf("kind %d empty", int(k))
		}
	}
	e := Event{Kind: EvStage, Stage: 3, Cycles: 7, Verdict: VerdictForward}
	if e.String() == "" {
		t.Error("event renders empty")
	}
}

func TestParserFillsPHVArrayContainers(t *testing.T) {
	// §3.2 "array processing in packet parsing": with a layout that has an
	// array container named like a parse-graph array, the parser fills it
	// before any stage runs — no program code needed.
	cfg := DefaultADCPConfig()
	layout := StandardLayout(cfg.PHVBudget)
	keysID, err := layout.AllocArray("kv_keys")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg, packet.StandardGraph(), layout)
	if err != nil {
		t.Fatal(err)
	}
	var seen []uint32
	prog := &Program{Layout: layout, Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error {
			seen = append(seen, ctx.PHV().Array(keysID)...)
			return nil
		},
	}}
	pkt := packet.Build(packet.Header{Proto: packet.ProtoKV, DstPort: 1},
		&packet.KVHeader{Op: packet.KVGet, Pairs: []packet.KVPair{{Key: 5}, {Key: 6}, {Key: 7}}})
	ctx, err := p.Process(pkt, prog)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(ctx)
	if len(seen) != 3 || seen[0] != 5 || seen[2] != 7 {
		t.Errorf("stage saw %v via PHV array", seen)
	}
}

func TestObserverCyclesAcrossResume(t *testing.T) {
	// Per-traversal cycle counts restart on Resume (each recirculation pass
	// is its own traversal), while the pipeline's StageCycles accumulates
	// across passes.
	cfg := DefaultRMTConfig()
	cfg.Stages = 2
	p, _ := newTestPipeline(t, cfg)
	var rec Recorder
	p.SetObserver(rec.Observe)
	pass := 0
	prog := &Program{Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error {
			if pass == 0 {
				ctx.Verdict = VerdictRecirculate
			}
			return nil
		},
	}}
	ctx, err := p.Process(kvPacket(1), prog)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Verdict != VerdictRecirculate {
		t.Fatalf("first pass verdict %v", ctx.Verdict)
	}
	pass++
	firstPassEvents := len(rec.Events)
	if err := p.Resume(ctx, prog); err != nil {
		t.Fatal(err)
	}
	p.Release(ctx)

	var dones []Event
	for _, e := range rec.Events {
		if e.Kind == EvDone {
			dones = append(dones, e)
		}
	}
	if len(dones) != 2 {
		t.Fatalf("done events = %d: %v", len(dones), rec.Events)
	}
	if dones[0].Verdict != VerdictRecirculate || dones[1].Verdict != VerdictForward {
		t.Errorf("verdicts %v then %v", dones[0].Verdict, dones[1].Verdict)
	}
	// The second traversal's first event restarts the per-traversal count:
	// its cycle count must be below the first traversal's finishing count.
	second := rec.Events[firstPassEvents]
	if second.Kind != EvParsed || second.Cycles >= dones[0].Cycles {
		t.Errorf("resume did not restart cycles: %v after done at %d", second, dones[0].Cycles)
	}
	// StageCycles accumulated both passes — exactly the sum of the cycle
	// counts at each pass's last stage event.
	var wantTotal uint64
	last := 0
	for _, e := range rec.Events {
		if e.Kind == EvStage {
			last = e.Cycles
		}
		if e.Kind == EvDone {
			wantTotal += uint64(last)
		}
	}
	if got := p.StageCycles(); got != wantTotal {
		t.Errorf("StageCycles = %d, want %d", got, wantTotal)
	}
	if p.Recirculations() != 1 {
		t.Errorf("Recirculations = %d", p.Recirculations())
	}
}

func TestObserverRearmsAfterDisarm(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	var rec Recorder
	p.SetObserver(rec.Observe)
	ctx, _ := p.Process(kvPacket(1), nil)
	p.Release(ctx)
	perPacket := len(rec.Events)
	if perPacket == 0 {
		t.Fatal("no events on armed pipeline")
	}
	p.SetObserver(nil)
	ctx, _ = p.Process(kvPacket(2), nil)
	p.Release(ctx)
	p.SetObserver(rec.Observe)
	ctx, _ = p.Process(kvPacket(3), nil)
	p.Release(ctx)
	if len(rec.Events) != 2*perPacket {
		t.Errorf("events = %d, want %d (disarmed packet must not record)",
			len(rec.Events), 2*perPacket)
	}
	if p.Packets() != 3 {
		t.Errorf("Packets = %d (counters must not depend on the observer)", p.Packets())
	}
}
