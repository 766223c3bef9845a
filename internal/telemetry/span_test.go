package telemetry

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestChainAdvanceTilesTimeExactly(t *testing.T) {
	c := NewChain(100, 7, nil, 0)
	c.Advance(150, BucketQueueing)
	c.Advance(150, BucketSerialization) // no-op: to == cursor
	c.Advance(140, BucketRetx)          // no-op: to < cursor
	c.Advance(300, BucketSerialization)
	c.Advance(450, BucketPropagation)
	bd := c.Breakdown()
	if got, want := bd.Get(BucketQueueing), sim.Time(50); got != want {
		t.Fatalf("queueing = %v, want %v", got, want)
	}
	if got, want := bd.Get(BucketSerialization), sim.Time(150); got != want {
		t.Fatalf("serialization = %v, want %v", got, want)
	}
	if got, want := bd.Sum(), c.Cursor()-c.Start(); got != want {
		t.Fatalf("sum %v != cursor-start %v (tiling broken)", got, want)
	}
	if bd.Get(BucketRetx) != 0 {
		t.Fatalf("backwards advance charged retx: %v", bd.Get(BucketRetx))
	}
}

func TestChainForkIsolatesBranches(t *testing.T) {
	c := NewChain(0, 1, nil, 0)
	c.Advance(10, BucketQueueing)
	f := c.Fork()
	c.Advance(30, BucketRetx)
	f.Advance(25, BucketPipeline)
	if got := f.Breakdown().Get(BucketRetx); got != 0 {
		t.Fatalf("fork saw parent's post-fork retx: %v", got)
	}
	if got := c.Breakdown().Get(BucketPipeline); got != 0 {
		t.Fatalf("parent saw fork's pipeline: %v", got)
	}
	if got, want := f.Breakdown().Get(BucketQueueing), sim.Time(10); got != want {
		t.Fatalf("fork lost pre-fork history: %v != %v", got, want)
	}
}

func TestNilChainIsNoOp(t *testing.T) {
	var c *Chain
	c.Advance(10, BucketQueueing) // must not panic
	if c.Fork() != nil {
		t.Fatal("nil fork should stay nil")
	}
	if c.Breakdown().Sum() != 0 {
		t.Fatal("nil breakdown should be zero")
	}
}

// Chains write their lineage as span events through a track: a packet
// marker and a segment per advance, a child marker per fork, every one
// carrying the coflow.
func TestSpansEmitLineageOntoTracer(t *testing.T) {
	r := NewRecorder(true)
	sp := r.Process("test").SpanThread("spans")
	root := sp.NewSpan()
	c := NewChain(1000, 42, sp, root)
	c.Advance(1500, BucketSerialization)
	f := c.Fork()
	f.Advance(2000, BucketPipeline)

	var span, other int
	for _, ev := range jsonl(t, r, "") {
		switch {
		case ev["cat"] == "span":
			span++
			if name, _ := ev["name"].(string); !strings.HasPrefix(name, "span.") {
				t.Fatalf("span event named %q", name)
			}
			if args, _ := ev["args"].(map[string]any); args["coflow"] != float64(42) {
				t.Fatalf("span event lost coflow: %v", ev["args"])
			}
		case ev["ph"] != "M" && ev["ph"] != "trailer":
			other++
		}
	}
	// packet instant + serialization + fork's packet instant + pipeline.
	if span != 4 {
		t.Fatalf("got %d span events, want 4", span)
	}
	if other != 0 {
		t.Fatalf("%d non-span, non-metadata events leaked", other)
	}
}
