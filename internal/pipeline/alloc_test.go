package pipeline

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/phv"
)

// TestTraversalAllocsSteadyState pins the tentpole claim at the pipeline
// layer: once the context free list, PHV pool, and bound-parser buffers
// are warm, a full parse → stages → release traversal allocates nothing —
// on the scalar RMT layout and on the ADCP layout with array containers.
func TestTraversalAllocsSteadyState(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		arrays bool
	}{
		{"RMT", DefaultRMTConfig(), false},
		{"ADCP", DefaultADCPConfig(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			layout := testLayout(t, tc.cfg.PHVBudget)
			if tc.arrays {
				for _, name := range []string{"kv_keys", "kv_values"} {
					if _, err := layout.AllocArray(name); err != nil {
						t.Fatal(err)
					}
				}
			}
			p, err := New(tc.cfg, packet.StandardGraph(), layout)
			if err != nil {
				t.Fatal(err)
			}
			prog := &Program{
				Name:   "alloc-probe",
				Funcs:  make([]StageFunc, tc.cfg.Stages),
				Layout: layout,
			}
			// A stateful stage plus a PHV-reading stage, so the traversal
			// exercises register RMW and container access, not just parse.
			prog.Funcs[0] = func(s *Stage, ctx *Context) error {
				_, err := s.RegisterRMW(mat.RegAdd, 0, 1)
				return err
			}
			id := layout.Lookup("coflow_id")
			prog.Funcs[5] = func(s *Stage, ctx *Context) error {
				ctx.Egress = int(ctx.PHV().Get(id) % 4)
				return nil
			}
			pkt := kvPacket(4)
			for i := 0; i < 8; i++ { // warm pools and free lists
				ctx, err := p.Process(pkt, prog)
				if err != nil {
					t.Fatal(err)
				}
				p.Release(ctx)
			}
			allocs := testing.AllocsPerRun(100, func() {
				ctx, err := p.Process(pkt, prog)
				if err != nil {
					t.Fatal(err)
				}
				p.Release(ctx)
			})
			if allocs != 0 {
				t.Fatalf("traversal allocates %.1f objects per packet, want 0", allocs)
			}
		})
	}
}

// TestReleaseIsIdempotent: double Release must not hand the same context
// out twice (the free list would then serve one context to two packets).
func TestReleaseIsIdempotent(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	ctx, err := p.Process(kvPacket(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(ctx)
	p.Release(ctx)
	a, err := p.Process(kvPacket(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Process(kvPacket(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("double Release served one context to two live packets")
	}
	p.Release(a)
	p.Release(b)
}

// TestBoundParseMatchesMapParse runs the same packets through a pipeline
// (whose parser is the bound, flat one) and through the name-keyed
// ParseGraph.Run it was bound from, applying the map result to a PHV the
// way a layout consumes it: scalars into scalar containers, arrays into
// array containers, everything else dropped. PHV contents and parse cycle
// counts must be identical.
func TestBoundParseMatchesMapParse(t *testing.T) {
	cfg := DefaultADCPConfig()
	layout := testLayout(t, cfg.PHVBudget)
	for _, name := range []string{"kv_keys", "kv_values"} {
		if _, err := layout.AllocArray(name); err != nil {
			t.Fatal(err)
		}
	}
	graph := packet.StandardGraph()
	p, err := New(cfg, graph, layout)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 3, 8} {
		pkt := kvPacket(n)
		fc, err := p.Process(pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := graph.Run(pkt.Data, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := phv.NewVector(layout)
		for name, val := range res.Fields {
			if id := layout.Lookup(name); id != phv.Invalid && !layout.IsArray(id) {
				want.Set(id, val)
			}
		}
		for name, vals := range res.Arrays {
			if id := layout.Lookup(name); id != phv.Invalid && layout.IsArray(id) {
				want.SetArray(id, vals)
			}
		}
		// An empty program pays one cycle per stage on top of the parse.
		if got := fc.Cycles - p.NumStages(); got != res.StatesVisited {
			t.Fatalf("n=%d: bound parse took %d cycles, map parse %d", n, got, res.StatesVisited)
		}
		for _, name := range []string{"dst_port", "proto", "coflow_id", "kv_op", "kv_count"} {
			id := layout.Lookup(name)
			if fv, lv := fc.PHV().Get(id), want.Get(id); fv != lv || fc.PHV().Valid(id) != want.Valid(id) {
				t.Fatalf("n=%d: field %s: bound %d, map %d", n, name, fv, lv)
			}
		}
		for _, name := range []string{"kv_keys", "kv_values"} {
			fk, lk := fc.PHV().Array(layout.Lookup(name)), want.Array(layout.Lookup(name))
			if len(fk) != len(lk) {
				t.Fatalf("n=%d: %s len: bound %d, map %d", n, name, len(fk), len(lk))
			}
			for i := range fk {
				if fk[i] != lk[i] {
					t.Fatalf("n=%d: %s[%d]: bound %d, map %d", n, name, i, fk[i], lk[i])
				}
			}
		}
		p.Release(fc)
	}
}
