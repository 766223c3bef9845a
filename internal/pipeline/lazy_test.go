package pipeline

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/phv"
)

// The rule under test: a traversal walks each pass once, and stores only
// what is read. Whoever reads the PHV, whenever, sees what a vector filled
// at parse time would hold, and the decoded view what an eager decode of the
// pass's bytes holds; whoever does not read it pays for none of it.

// lazyLayout is the standard layout plus every array the standard graph
// lifts that the ADCP budget has a container for.
func lazyLayout(t testing.TB) *phv.Layout {
	t.Helper()
	l := StandardLayout(phv.ADCPBudget)
	for _, name := range []string{"ml_values", "kv_keys", "kv_values", "db_keys"} {
		if _, err := l.AllocArray(name); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// keysLayout is the KV cache's layout: the key array and nothing else.
func keysLayout(t testing.TB) *phv.Layout {
	t.Helper()
	l := phv.NewLayout(phv.ADCPBudget)
	if _, err := l.AllocArray("kv_keys"); err != nil {
		t.Fatal(err)
	}
	return l
}

// decodedView renders the base header and the application header its
// protocol selects: what a stage program can read of a Decoded.
func decodedView(d *packet.Decoded) string {
	app := map[packet.Proto]any{packet.ProtoRaw: d.Payload, packet.ProtoML: d.ML, packet.ProtoKV: d.KV,
		packet.ProtoDB: d.DB, packet.ProtoGraph: d.Graph, packet.ProtoGroup: d.Group}[d.Base.Proto]
	return fmt.Sprintf("%+v %+v", d.Base, app)
}

// dump renders every container of v: validity, scalar value, array contents.
func dump(v *phv.Vector) string {
	var b strings.Builder
	l := v.Layout()
	for id := phv.FieldID(0); int(id) < l.NumFields(); id++ {
		if l.IsArray(id) {
			fmt.Fprintf(&b, "%s=%v/%v ", l.NameOf(id), v.Valid(id), v.Array(id))
		} else {
			fmt.Fprintf(&b, "%s=%v/%d ", l.NameOf(id), v.Valid(id), v.Get(id))
		}
	}
	return b.String()
}

// refFill applies the unbound, name-keyed parse of data to v the way a
// pipeline that filled its PHV on every pass did.
func refFill(t testing.TB, g *packet.ParseGraph, v *phv.Vector, data []byte) {
	t.Helper()
	res, err := g.Run(data, 0)
	if err != nil {
		t.Fatalf("reference parse rejects bytes the pipeline accepted: %v", err)
	}
	l := v.Layout()
	for name, val := range res.Fields {
		if id := l.Lookup(name); id != phv.Invalid && !l.IsArray(id) {
			v.Set(id, val)
		}
	}
	for name, vals := range res.Arrays {
		if id := l.Lookup(name); id != phv.Invalid && l.IsArray(id) {
			v.SetArray(id, vals)
		}
	}
}

// Where a variant's program reads the PHV.
const (
	readNever = iota
	readStage0
	readLastStage
	readAfterResume // second pass only
	readAfterwards  // by the caller, once the traversal is over
	readVariants
)

// Program behaviour, from the fuzzer's second argument.
const (
	actRecirculate = 1 << iota // one more pass, as rmt.Switch drives it
	actModify                  // first pass rewrites a header: the deparser re-encodes
	actRetype                  // ... and changes the protocol, so the second pass takes another path
)

// traversal is everything one variant's run lets an observer see.
type traversal struct {
	Err      string
	Verdict  Verdict
	Cycles   int
	Out      []byte
	Counters Counters
	Events   []Event
}

// runVariant drives data through a fresh pipeline whose program reads the
// PHV at the variant's point, checking each read against the eager
// reference and the decoded view at every stage 0, and returns what the
// traversal did.
func runVariant(t testing.TB, data []byte, act uint8, variant int, layout *phv.Layout) traversal {
	cfg := DefaultADCPConfig()
	cfg.Stages = 3
	graph := packet.StandardGraph()
	p, err := New(cfg, graph, layout)
	if err != nil {
		t.Fatal(err)
	}
	var rec Recorder
	p.SetObserver(rec.Observe)

	// want is what an eager pipeline's vector holds: stage 0 runs once the
	// pass's bytes (cur) have parsed, and parses them into it again by name.
	want, cur, pass := phv.NewVector(layout), data, 0
	check := func(ctx *Context, where string) {
		if got, ref := dump(ctx.PHV()), dump(want); got != ref {
			t.Fatalf("variant %d act %#x: PHV read %s, pass %d:\n got %s\nwant %s", variant, act, where, pass, got, ref)
		}
	}
	prog := &Program{Funcs: []StageFunc{
		func(_ *Stage, ctx *Context) error {
			refFill(t, graph, want, cur)
			var eager packet.Decoded
			if err := eager.Decode(cur); err != nil {
				t.Fatalf("variant %d act %#x: eager decode rejects bytes the pipeline accepted: %v", variant, act, err)
			}
			if got, ref := decodedView(&ctx.Decoded), decodedView(&eager); got != ref {
				t.Fatalf("variant %d act %#x: decoded view, pass %d:\n got %s\nwant %s", variant, act, pass, got, ref)
			}
			if variant == readStage0 || (variant == readAfterResume && pass == 1) {
				check(ctx, "at stage 0")
			}
			return nil
		},
		nil,
		func(_ *Stage, ctx *Context) error {
			if variant == readLastStage {
				check(ctx, "at the last stage")
			}
			if pass == 0 && act&actModify != 0 {
				ctx.Decoded.Base.Seq++
				if act&actRetype != 0 {
					ctx.Decoded.Base.Proto = packet.ProtoRaw
				}
				ctx.Modified = true
			}
			if pass == 0 && act&actRecirculate != 0 {
				ctx.Verdict = VerdictRecirculate
			}
			return nil
		},
	}}

	pkt := &packet.Packet{Data: append([]byte(nil), data...), EgressPort: -1}
	var out traversal
	finish := func() traversal {
		out.Counters, out.Events = p.Counters(), rec.Events
		return out
	}
	ctx, err := p.Process(pkt, prog)
	if err != nil {
		out.Err = err.Error()
		return finish()
	}
	if ctx.Verdict == VerdictRecirculate {
		ctx.Pkt.Recirculations++
		ctx.Pkt.Data[5] |= packet.FlagRecirc
		cur, pass = append([]byte(nil), ctx.Pkt.Data...), 1
		if err := p.Resume(ctx, prog); err != nil {
			out.Err = err.Error()
			p.Release(ctx)
			return finish()
		}
	}
	if variant == readAfterwards {
		check(ctx, "after the traversal")
	}
	out.Verdict, out.Cycles, out.Out = ctx.Verdict, ctx.Cycles, append([]byte(nil), ctx.Pkt.Data...)
	p.Release(ctx)
	return finish()
}

// checkTraversalReads is FuzzTraversalReads' property on one input: under
// the full layout and under the KV cache's, a traversal is the same whether
// and wherever its program reads the PHV.
func checkTraversalReads(t *testing.T, data []byte, act uint8) {
	for _, layout := range []*phv.Layout{lazyLayout(t), keysLayout(t)} {
		base := runVariant(t, data, act, readNever, layout)
		for v := readNever + 1; v < readVariants; v++ {
			if got := runVariant(t, data, act, v, layout); !reflect.DeepEqual(got, base) {
				t.Fatalf("act %#x, %d-field layout: reading the PHV (variant %d) changed the traversal:\n got %+v\nwant %+v",
					act, layout.NumFields(), v, got, base)
			}
		}
	}
}

// recirculatedML is an ML packet on its way round again: the case where a
// recirculated pass takes another path through the parse graph than the
// pass before it (actRetype), so a vector first asked for on the second
// pass is built from the first pass's bytes, beside the second pass's walk.
var recirculatedML = packet.Build(packet.Header{Proto: packet.ProtoML, Flags: packet.FlagRecirc},
	&packet.MLHeader{Base: 4, Values: []uint32{7, 8, 9}})

// TestTraversalReadsPathChangeOnRecirculation is the fuzzer's seed that
// holds a vector built from an earlier pass's bytes to a walk result of its
// own: rebuilt into the pass's result instead, it clobbers what the current
// pass extracted.
func TestTraversalReadsPathChangeOnRecirculation(t *testing.T) {
	checkTraversalReads(t, recirculatedML.Data, actRecirculate|actModify|actRetype)
}

func FuzzTraversalReads(f *testing.F) {
	values := []uint32{7, 8, 9}
	pairs := []packet.KVPair{{Key: 1, Value: 2}, {Key: 3, Value: 4}}
	kv := packet.Build(packet.Header{Proto: packet.ProtoKV, SrcPort: 2, CoflowID: 9}, &packet.KVHeader{Op: packet.KVGet, Pairs: pairs})
	for _, p := range []*packet.Packet{
		packet.Build(packet.Header{Proto: packet.ProtoML, CoflowID: 1}, &packet.MLHeader{Base: 16, Worker: 3, Values: values}),
		kv,
		packet.Build(packet.Header{Proto: packet.ProtoDB}, &packet.DBHeader{Query: 5, Tuples: []packet.DBTuple{{Key: 1, Measure: 10}}}),
		packet.Build(packet.Header{Proto: packet.ProtoGraph}, &packet.GraphHeader{Round: 2, Edges: []packet.Edge{{Src: 1, Dst: 2}}}),
		packet.Build(packet.Header{Proto: packet.ProtoGroup}, &packet.GroupHeader{GroupID: 1, Total: 4, Payload: []byte("chunk")}),
		packet.BuildRaw(packet.Header{DstPort: 1}, 12),
		{Data: kv.Data[:len(kv.Data)-3]}, // truncated inside the last pair
		recirculatedML,
	} {
		for _, act := range []uint8{0, actRecirculate, actRecirculate | actModify, actRecirculate | actModify | actRetype} {
			f.Add(p.Data, act)
		}
	}
	f.Fuzz(checkTraversalReads)
}

// TestUnreadPHVIsNeverBuilt is the structural half of the rule: traversals
// whose program is absent, or reads only the decoded view, go through parse,
// recirculation and release without a vector ever leaving the pool — and a
// recycled context does not inherit its predecessor's.
func TestUnreadPHVIsNeverBuilt(t *testing.T) {
	p, err := New(DefaultADCPConfig(), packet.StandardGraph(), lazyLayout(t))
	if err != nil {
		t.Fatal(err)
	}
	decodedOnly := &Program{Funcs: []StageFunc{func(_ *Stage, ctx *Context) error {
		if ctx.Decoded.KV.Count == 3 && ctx.Pkt.Recirculations == 0 {
			ctx.Verdict = VerdictRecirculate
		}
		return nil
	}}}
	reader := &Program{Funcs: []StageFunc{func(_ *Stage, ctx *Context) error {
		ctx.Egress = len(ctx.PHV().Array(ctx.PHV().Layout().Lookup("kv_keys")))
		return nil
	}}}
	for i, prog := range []*Program{nil, decodedOnly, reader, nil, decodedOnly} {
		ctx, err := p.Process(kvPacket(3), prog)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.Verdict == VerdictRecirculate {
			ctx.Pkt.Recirculations++
			if err := p.Resume(ctx, prog); err != nil {
				t.Fatal(err)
			}
		}
		if built := ctx.vec != nil; built != (prog == reader) {
			t.Errorf("traversal %d: PHV built = %v, want %v", i, built, prog == reader)
		}
		if prog == reader && ctx.Egress != 3 {
			t.Errorf("reader saw %d lifted keys, want 3", ctx.Egress)
		}
		p.Release(ctx)
		if ctx.PHV() != nil {
			t.Errorf("traversal %d: a released context still hands out a PHV", i)
		}
	}
}

// TestLatePHVReadsItsOwnPass: a vector first asked for after a pipeline of
// the same switch has walked another packet is built from its own pass's
// bytes, not from the walk the pipelines kept last, and leaves that walk to
// its owner.
func TestLatePHVReadsItsOwnPass(t *testing.T) {
	layout := keysLayout(t)
	ps, err := NewN(2, DefaultADCPConfig(), packet.StandardGraph(), layout)
	if err != nil {
		t.Fatal(err)
	}
	keys := layout.Lookup("kv_keys")
	first, err := ps[0].Process(kvPacket(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ps[1].Process(kvPacket(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.PHV().Array(keys); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Errorf("the earlier traversal's late PHV holds keys %v, want [1 2 3]", got)
	}
	if got := second.PHV().Array(keys); !reflect.DeepEqual(got, []uint32{1, 2, 3, 4, 5}) {
		t.Errorf("the latest traversal's PHV holds keys %v, want [1 2 3 4 5]", got)
	}
	ps[0].Release(first)
	ps[1].Release(second)
}
