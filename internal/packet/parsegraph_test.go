package packet

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestStandardGraphValidates(t *testing.T) {
	if err := StandardGraph().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStandardGraphParsesEachProto(t *testing.T) {
	g := StandardGraph()
	cases := []struct {
		name   string
		pkt    *Packet
		states int
		field  string
		want   uint64
	}{
		{"raw", BuildRaw(sampleHeader(ProtoRaw), 10), 1, "coflow_id", 0xC0F10},
		{"ml", Build(sampleHeader(ProtoML), &MLHeader{Base: 5, Values: []uint32{1}}), 2, "ml_base", 5},
		{"kv", Build(sampleHeader(ProtoKV), &KVHeader{Op: KVGet, Pairs: []KVPair{{1, 2}}}), 2, "kv_count", 1},
		{"db", Build(sampleHeader(ProtoDB), &DBHeader{Query: 9, Tuples: []DBTuple{{1, 2}}}), 2, "db_query", 9},
		{"graph", Build(sampleHeader(ProtoGraph), &GraphHeader{Round: 4, Edges: []Edge{{1, 2}}}), 2, "graph_round", 4},
		{"group", Build(sampleHeader(ProtoGroup), &GroupHeader{GroupID: 8, Payload: []byte{1}}), 2, "group_id", 8},
	}
	for _, c := range cases {
		res, err := g.Run(c.pkt.Data, 0)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if res.StatesVisited != c.states {
			t.Errorf("%s: visited %d states, want %d", c.name, res.StatesVisited, c.states)
		}
		if got := res.Fields[c.field]; got != c.want {
			t.Errorf("%s: field %s = %d, want %d", c.name, c.field, got, c.want)
		}
	}
}

func TestParseGraphTruncated(t *testing.T) {
	g := StandardGraph()
	p := Build(sampleHeader(ProtoML), &MLHeader{Values: []uint32{1, 2}})
	// Cut into the ML fixed header.
	if _, err := g.Run(p.Data[:BaseHeaderLen+2], 0); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestParseGraphLoopDetection(t *testing.T) {
	g := NewParseGraph("a")
	g.Add(&ParseState{Name: "a", HdrLen: 0, Default: "b"})
	g.Add(&ParseState{Name: "b", HdrLen: 0, Default: "a"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run([]byte{1, 2, 3}, 10); err == nil {
		t.Error("cyclic graph did not error")
	}
}

func TestParseGraphValidationErrors(t *testing.T) {
	// Missing start.
	if err := NewParseGraph("nope").Validate(); err == nil {
		t.Error("missing start state accepted")
	}
	// Selector not extracted.
	g := NewParseGraph("a")
	g.Add(&ParseState{Name: "a", HdrLen: 4, Select: "x", Next: map[uint64]string{}})
	if err := g.Validate(); err == nil {
		t.Error("unextracted selector accepted")
	}
	// Branch to missing state.
	g2 := NewParseGraph("a")
	g2.Add(&ParseState{
		Name: "a", HdrLen: 4,
		Extracts: []FieldRef{{Name: "x", Offset: 0, Width: 1}},
		Select:   "x", Next: map[uint64]string{1: "ghost"},
	})
	if err := g2.Validate(); err == nil {
		t.Error("branch to missing state accepted")
	}
	// Field overruns header.
	g3 := NewParseGraph("a")
	g3.Add(&ParseState{Name: "a", HdrLen: 2, Extracts: []FieldRef{{Name: "x", Offset: 1, Width: 4}}})
	if err := g3.Validate(); err == nil {
		t.Error("overrunning field accepted")
	}
	// Bad width.
	g4 := NewParseGraph("a")
	g4.Add(&ParseState{Name: "a", HdrLen: 8, Extracts: []FieldRef{{Name: "x", Offset: 0, Width: 3}}})
	if err := g4.Validate(); err == nil {
		t.Error("width 3 accepted")
	}
	// Default to missing state.
	g5 := NewParseGraph("a")
	g5.Add(&ParseState{Name: "a", HdrLen: 1, Default: "ghost"})
	if err := g5.Validate(); err == nil {
		t.Error("default to missing state accepted")
	}
}

// Property: parse cost depends only on proto (packet structure), not on the
// array payload size — the paper's §3.3 parsing-efficiency observation.
func TestParseCostIndependentOfPayloadProperty(t *testing.T) {
	g := StandardGraph()
	f := func(n uint8) bool {
		vals := make([]uint32, int(n)%256+1)
		p := Build(sampleHeader(ProtoML), &MLHeader{Values: vals})
		res, err := g.Run(p.Data, 0)
		if err != nil {
			return false
		}
		return res.StatesVisited == 2 && res.BytesConsumed == BaseHeaderLen+MLHeaderFixedLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStandardGraphParse(b *testing.B) {
	g := StandardGraph()
	p := Build(sampleHeader(ProtoKV), &KVHeader{Op: KVGet, Pairs: make([]KVPair, 16)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(p.Data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStandardGraphArrayExtraction(t *testing.T) {
	g := StandardGraph()
	p := Build(sampleHeader(ProtoKV), &KVHeader{Op: KVGet, Pairs: []KVPair{
		{Key: 10, Value: 100}, {Key: 20, Value: 200}, {Key: 30, Value: 300},
	}})
	res, err := g.Run(p.Data, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := res.Arrays["kv_keys"]
	vals := res.Arrays["kv_values"]
	if len(keys) != 3 || keys[0] != 10 || keys[2] != 30 {
		t.Errorf("kv_keys = %v", keys)
	}
	if len(vals) != 3 || vals[1] != 200 {
		t.Errorf("kv_values = %v", vals)
	}
	// ML values too.
	mlp := Build(sampleHeader(ProtoML), &MLHeader{Base: 0, Values: []uint32{7, 8, 9}})
	res, err = g.Run(mlp.Data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Arrays["ml_values"]; len(got) != 3 || got[2] != 9 {
		t.Errorf("ml_values = %v", got)
	}
}

func TestArrayExtractionCappedAtSixteen(t *testing.T) {
	g := StandardGraph()
	p := Build(sampleHeader(ProtoML), &MLHeader{Values: make([]uint32, 40)})
	res, err := g.Run(p.Data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Arrays["ml_values"]); got != 16 {
		t.Errorf("lifted %d elements, want 16 (one array width)", got)
	}
}

func TestArrayExtractionLyingCountErrors(t *testing.T) {
	g := StandardGraph()
	p := Build(sampleHeader(ProtoKV), &KVHeader{Op: KVGet, Pairs: []KVPair{{Key: 1}}})
	// Claim 10 pairs with data for 1.
	p.Data[BaseHeaderLen+2] = 0
	p.Data[BaseHeaderLen+3] = 10
	if _, err := g.Run(p.Data, 0); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestArrayValidation(t *testing.T) {
	// Count field not extracted.
	g := NewParseGraph("a")
	g.Add(&ParseState{
		Name: "a", HdrLen: 4,
		Arrays: []ArrayRef{{Name: "x", CountField: "n", Stride: 4}},
	})
	if err := g.Validate(); err == nil {
		t.Error("array counting on unextracted field accepted")
	}
	// Bad stride.
	g2 := NewParseGraph("a")
	g2.Add(&ParseState{
		Name: "a", HdrLen: 4,
		Extracts: []FieldRef{{Name: "n", Offset: 0, Width: 2}},
		Arrays:   []ArrayRef{{Name: "x", CountField: "n", Stride: 2}},
	})
	if err := g2.Validate(); err == nil {
		t.Error("stride 2 accepted")
	}
	// Elem offset beyond stride.
	g3 := NewParseGraph("a")
	g3.Add(&ParseState{
		Name: "a", HdrLen: 4,
		Extracts: []FieldRef{{Name: "n", Offset: 0, Width: 2}},
		Arrays:   []ArrayRef{{Name: "x", CountField: "n", Stride: 4, ElemOffset: 4}},
	})
	if err := g3.Validate(); err == nil {
		t.Error("elem offset past stride accepted")
	}
	// Missing name.
	g4 := NewParseGraph("a")
	g4.Add(&ParseState{
		Name: "a", HdrLen: 4,
		Extracts: []FieldRef{{Name: "n", Offset: 0, Width: 2}},
		Arrays:   []ArrayRef{{CountField: "n", Stride: 4}},
	})
	if err := g4.Validate(); err == nil {
		t.Error("unnamed array accepted")
	}
}

// FlatResult.Path names the states a walk went through, or is zero when it
// cannot: pipelines treat zero as "may differ from any other walk".
func TestBoundPathIdentifiesWalk(t *testing.T) {
	bound, err := StandardGraph().Bind(func(string, bool) int { return -1 })
	if err != nil {
		t.Fatal(err)
	}
	path := func(p *Packet) uint64 {
		var r FlatResult
		if err := bound.Check(p.Data, 0, &r); err != nil {
			t.Fatal(err)
		}
		return r.Path
	}
	ml := path(Build(Header{Proto: ProtoML}, &MLHeader{Values: []uint32{1}}))
	if other := path(Build(Header{Proto: ProtoML, Seq: 9}, &MLHeader{Base: 4, Values: []uint32{2, 3}})); ml == 0 || other != ml {
		t.Errorf("two ML packets walked paths %#x and %#x", ml, other)
	}
	if kv := path(Build(Header{Proto: ProtoKV}, &KVHeader{})); kv == 0 || kv == ml {
		t.Errorf("a KV packet walked path %#x, an ML packet %#x", kv, ml)
	}
	chain := NewParseGraph("s0")
	for i := 0; i < 9; i++ {
		next := fmt.Sprintf("s%d", i+1)
		if i == 8 {
			next = ""
		}
		chain.Add(&ParseState{Name: fmt.Sprintf("s%d", i), HdrLen: 1, Default: next})
	}
	long, err := chain.Bind(func(string, bool) int { return -1 })
	if err != nil {
		t.Fatal(err)
	}
	var r FlatResult
	if err := long.Check(make([]byte, 9), 0, &r); err != nil || r.StatesVisited != 9 || r.Path != 0 {
		t.Errorf("nine-state walk: %d states, path %#x, %v; want 9, 0, nil", r.StatesVisited, r.Path, err)
	}
}
