package packet

import (
	"bytes"
	"fmt"
	"testing"
)

// Native fuzz targets (run as tests over the seed corpus; extendable with
// `go test -fuzz=FuzzDecoded ./internal/packet/`).

func fuzzSeeds() [][]byte {
	return [][]byte{
		Build(Header{Proto: ProtoML}, &MLHeader{Base: 1, Values: []uint32{1, 2, 3}}).Data,
		Build(Header{Proto: ProtoKV}, &KVHeader{Op: KVPut, Pairs: []KVPair{{1, 2}}}).Data,
		Build(Header{Proto: ProtoDB}, &DBHeader{Query: 3, Tuples: []DBTuple{{4, 5}}}).Data,
		Build(Header{Proto: ProtoGraph}, &GraphHeader{Round: 1, Edges: []Edge{{6, 7}}}).Data,
		Build(Header{Proto: ProtoGroup}, &GroupHeader{GroupID: 8, Payload: []byte("x")}).Data,
		BuildRaw(Header{}, 32).Data,
		{},
		{0xFF},
	}
}

func FuzzDecoded(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoded
		if err := d.Decode(data); err != nil {
			return
		}
		// A successful decode must re-encode to something that decodes to
		// the same base header (round-trip stability on accepted inputs).
		re := d.Reencode()
		var d2 Decoded
		if err := d2.Decode(re.Data); err != nil {
			t.Fatalf("reencode of accepted packet rejected: %v", err)
		}
		if d2.Base.Proto != d.Base.Proto || d2.Base.CoflowID != d.Base.CoflowID {
			t.Fatalf("reencode changed the base header: %+v vs %+v", d2.Base, d.Base)
		}
	})
}

func FuzzParseGraph(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	g := StandardGraph()
	// Two bound forms: every name mapped stores everything, none mapped (an
	// empty PHV layout) only checks, and both must accept, reject and cost
	// exactly what the unbound walk does.
	slots := map[string]int{}
	bound, err := g.Bind(func(name string, _ bool) int {
		if _, ok := slots[name]; !ok {
			slots[name] = len(slots)
		}
		return slots[name]
	})
	if err != nil {
		f.Fatal(err)
	}
	unmapped, err := g.Bind(func(string, bool) int { return -1 })
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := g.Run(data, 0)
		var stored, checked FlatResult
		errRun, errCheck := bound.Run(data, 0, &stored), unmapped.Run(data, 0, &checked)
		if fmt.Sprint(errRun) != fmt.Sprint(err) || fmt.Sprint(errCheck) != fmt.Sprint(err) {
			t.Fatalf("errors differ: unbound %v, all mapped %v, none mapped %v", err, errRun, errCheck)
		}
		if err != nil {
			return
		}
		for _, r := range []*FlatResult{&stored, &checked} {
			if r.StatesVisited != res.StatesVisited || r.BytesConsumed != res.BytesConsumed || r.Path == 0 || r.Path != stored.Path {
				t.Fatalf("bound walk %+v, unbound visited %d states over %d bytes", *r, res.StatesVisited, res.BytesConsumed)
			}
		}
		if len(checked.Fields)+len(checked.Arrays) != 0 || len(stored.Fields) != len(res.Fields) || len(stored.Arrays) != len(res.Arrays) {
			t.Fatalf("none mapped stored %d+%d, all mapped %d+%d of the unbound walk's %d+%d", len(checked.Fields), len(checked.Arrays),
				len(stored.Fields), len(stored.Arrays), len(res.Fields), len(res.Arrays))
		}
		if res.BytesConsumed > len(data) {
			t.Fatalf("parser consumed %d of %d bytes", res.BytesConsumed, len(data))
		}
		// Array extractions never alias the input slice's tail out of
		// bounds; spot-check by mutating the input afterwards.
		for name, vals := range res.Arrays {
			_ = name
			if len(vals) > 16 {
				t.Fatalf("array longer than one width: %d", len(vals))
			}
		}
	})
}

func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint16(2), uint8(3), uint8(4), uint32(5), uint32(6), uint32(7))
	f.Fuzz(func(t *testing.T, dst, src uint16, proto, flags uint8, cf, fl, seq uint32) {
		h := Header{DstPort: dst, SrcPort: src, Proto: Proto(proto), Flags: flags, CoflowID: cf, FlowID: fl, Seq: seq}
		enc := h.Encode(nil)
		var g Header
		rest, err := g.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 || g != h {
			t.Fatalf("round trip: %+v vs %+v", g, h)
		}
		if !bytes.Equal(enc, g.Encode(nil)) {
			t.Fatal("re-encode differs")
		}
	})
}

// FuzzCoflowKey holds the header-only coflow key to the full decode it
// stands in for: for any bytes, the key is Base.CoflowID when Decode
// accepts them and 0 when it does not.
func FuzzCoflowKey(f *testing.F) {
	h := func(p Proto) Header { return Header{Proto: p, CoflowID: 0xC0F1} }
	kv := Build(h(ProtoKV), &KVHeader{Op: KVGet, Pairs: []KVPair{{1, 2}, {3, 4}}}).Data
	lying := append([]byte(nil), kv...)
	lying[BaseHeaderLen+3]++ // one pair more than the body holds
	long := append([]byte(nil), kv...)
	long[19]++ // a Length one past the body, which still holds its pairs
	short := append([]byte(nil), kv...)
	short[19] -= 8 // a Length one pair short of the count, the pair still there
	for _, s := range [][]byte{
		Build(h(ProtoML), &MLHeader{Base: 1, Values: []uint32{1, 2, 3}}).Data,
		kv,
		Build(h(ProtoDB), &DBHeader{Query: 3, Tuples: []DBTuple{{4, 5}}}).Data,
		Build(h(ProtoGraph), &GraphHeader{Round: 1, Edges: []Edge{{6, 7}}}).Data,
		Build(h(ProtoGroup), &GroupHeader{GroupID: 8, Payload: []byte("xyz")}).Data,
		Build(h(ProtoRaw), nil).Data,
		lying,
		long,
		short,
		Build(h(ProtoML), nil).Data, // no application header at all
		kv[:len(kv)-1],              // body shorter than Length, and than its pairs
		kv[:BaseHeaderLen-1],        // truncated base header
		Build(h(Proto(9)), nil).Data,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoded
		want := uint32(0)
		if d.Decode(data) == nil {
			want = d.Base.CoflowID
		}
		if got := CoflowKey(data); got != want {
			t.Fatalf("CoflowKey = %#x, a full decode keys %#x", got, want)
		}
	})
}
