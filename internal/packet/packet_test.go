package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleHeader(proto Proto) Header {
	return Header{
		DstPort:  7,
		SrcPort:  3,
		Proto:    proto,
		Flags:    FlagLast,
		CoflowID: 0xC0F10,
		FlowID:   42,
		Seq:      1001,
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader(ProtoKV)
	h.Length = 123
	data := h.Encode(nil)
	if len(data) != BaseHeaderLen {
		t.Fatalf("encoded %d bytes, want %d", len(data), BaseHeaderLen)
	}
	// Pad body so Decode's length check passes.
	data = append(data, make([]byte, 123)...)
	var g Header
	rest, err := g.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Errorf("round trip: got %+v, want %+v", g, h)
	}
	if len(rest) != 123 {
		t.Errorf("rest = %d bytes, want 123", len(rest))
	}
}

func TestHeaderDecodeTruncated(t *testing.T) {
	var h Header
	if _, err := h.Decode(make([]byte, BaseHeaderLen-1)); err != ErrTruncated {
		t.Errorf("short base header: err = %v, want ErrTruncated", err)
	}
	full := sampleHeader(ProtoRaw)
	full.Length = 50
	data := full.Encode(nil) // body missing entirely
	if _, err := h.Decode(data); err != ErrTruncated {
		t.Errorf("missing body: err = %v, want ErrTruncated", err)
	}
}

func TestMLRoundTrip(t *testing.T) {
	m := MLHeader{Base: 512, Worker: 9, Values: []uint32{1, 2, 3, 0xFFFFFFFF}}
	data := m.Encode(nil)
	if len(data) != m.EncodedLen() {
		t.Fatalf("len %d != EncodedLen %d", len(data), m.EncodedLen())
	}
	var g MLHeader
	if err := g.Decode(data); err != nil {
		t.Fatal(err)
	}
	if g.Base != 512 || g.Worker != 9 || len(g.Values) != 4 {
		t.Fatalf("got %+v", g)
	}
	for i, v := range m.Values {
		if g.Values[i] != v {
			t.Errorf("value %d = %d, want %d", i, g.Values[i], v)
		}
	}
}

func TestMLDecodeReusesCapacity(t *testing.T) {
	m := MLHeader{Values: []uint32{1, 2, 3, 4, 5, 6, 7, 8}}
	data := m.Encode(nil)
	g := MLHeader{Values: make([]uint32, 0, 16)}
	base := &g.Values[:1][0]
	_ = base
	if err := g.Decode(data); err != nil {
		t.Fatal(err)
	}
	if cap(g.Values) != 16 {
		t.Errorf("Decode reallocated: cap = %d, want 16", cap(g.Values))
	}
}

func TestMLDecodeTruncated(t *testing.T) {
	m := MLHeader{Values: []uint32{1, 2, 3}}
	data := m.Encode(nil)
	var g MLHeader
	if err := g.Decode(data[:len(data)-1]); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	if err := g.Decode(data[:3]); err != ErrTruncated {
		t.Errorf("fixed-part truncation: err = %v, want ErrTruncated", err)
	}
}

func TestKVRoundTrip(t *testing.T) {
	k := KVHeader{Op: KVPut, Pairs: []KVPair{{1, 10}, {2, 20}, {3, 30}}}
	data := k.Encode(nil)
	var g KVHeader
	if err := g.Decode(data); err != nil {
		t.Fatal(err)
	}
	if g.Op != KVPut || len(g.Pairs) != 3 || g.Pairs[2] != (KVPair{3, 30}) {
		t.Fatalf("got %+v", g)
	}
}

func TestDBRoundTrip(t *testing.T) {
	d := DBHeader{Query: 5, Stage: 1, Tuples: []DBTuple{{100, 7}, {200, 9}}}
	data := d.Encode(nil)
	var g DBHeader
	if err := g.Decode(data); err != nil {
		t.Fatal(err)
	}
	if g.Query != 5 || g.Stage != 1 || len(g.Tuples) != 2 || g.Tuples[1] != (DBTuple{200, 9}) {
		t.Fatalf("got %+v", g)
	}
}

func TestGraphRoundTrip(t *testing.T) {
	gr := GraphHeader{Round: 3, Edges: []Edge{{1, 2}, {2, 3}}}
	data := gr.Encode(nil)
	var g GraphHeader
	if err := g.Decode(data); err != nil {
		t.Fatal(err)
	}
	if g.Round != 3 || len(g.Edges) != 2 || g.Edges[0] != (Edge{1, 2}) {
		t.Fatalf("got %+v", g)
	}
}

func TestGroupRoundTrip(t *testing.T) {
	gr := GroupHeader{GroupID: 77, Chunk: 2, Total: 10, Payload: []byte("hello")}
	data := gr.Encode(nil)
	var g GroupHeader
	if err := g.Decode(data); err != nil {
		t.Fatal(err)
	}
	if g.GroupID != 77 || g.Chunk != 2 || g.Total != 10 || string(g.Payload) != "hello" {
		t.Fatalf("got %+v", g)
	}
}

func TestBuildAndDecode(t *testing.T) {
	p := Build(sampleHeader(ProtoML), &MLHeader{Base: 64, Values: []uint32{9, 8, 7}})
	var d Decoded
	if err := d.DecodePacket(p); err != nil {
		t.Fatal(err)
	}
	if d.Base.Proto != ProtoML {
		t.Errorf("proto = %v", d.Base.Proto)
	}
	if d.Base.Length != uint16(MLHeaderFixedLen+12) {
		t.Errorf("Length = %d", d.Base.Length)
	}
	if len(d.ML.Values) != 3 || d.ML.Values[0] != 9 {
		t.Errorf("ML = %+v", d.ML)
	}
	if d.Elements() != 3 {
		t.Errorf("Elements = %d, want 3", d.Elements())
	}
	if d.GoodputBytes() != 12 {
		t.Errorf("GoodputBytes = %d, want 12", d.GoodputBytes())
	}
}

// TestBuildSizesOneBuffer: Build trusts each body's EncodedLen to size the
// packet's only buffer, so the two must agree for every header type, and a
// build costs exactly the buffer and the Packet.
func TestBuildSizesOneBuffer(t *testing.T) {
	bodies := map[Proto]interface {
		EncodedLen() int
		Encode([]byte) []byte
	}{
		ProtoML:    &MLHeader{Base: 64, Worker: 2, Values: []uint32{9, 8, 7, 6, 5}},
		ProtoKV:    &KVHeader{Op: KVPut, Pairs: []KVPair{{1, 2}, {3, 4}, {5, 6}}},
		ProtoDB:    &DBHeader{Query: 3, Stage: 1, Tuples: []DBTuple{{1, 2}, {3, 4}}},
		ProtoGraph: &GraphHeader{Round: 2, Edges: []Edge{{1, 2}}},
		ProtoGroup: &GroupHeader{GroupID: 1, Chunk: 2, Total: 3, Payload: []byte("payload")},
	}
	for proto, body := range bodies {
		p := Build(sampleHeader(proto), body)
		payload := body.Encode(nil)
		h := sampleHeader(proto)
		h.Length = uint16(len(payload))
		want := append(h.Encode(nil), payload...)
		if !bytes.Equal(p.Data, want) {
			t.Errorf("%v: Build = %x, want %x", proto, p.Data, want)
		}
		if cap(p.Data) != len(p.Data) {
			t.Errorf("%v: buffer cap %d for %d bytes (EncodedLen %d)", proto, cap(p.Data), len(p.Data), body.EncodedLen())
		}
		if got := testing.AllocsPerRun(100, func() { Build(sampleHeader(proto), body) }); got != 2 {
			t.Errorf("%v: Build allocates %v objects, want 2", proto, got)
		}
	}
	if p := Build(sampleHeader(ProtoRaw), nil); len(p.Data) != BaseHeaderLen {
		t.Errorf("nil body: %d bytes", len(p.Data))
	}
}

func TestBuildRaw(t *testing.T) {
	p := BuildRaw(sampleHeader(ProtoML), 100) // proto forced to raw
	var d Decoded
	if err := d.DecodePacket(p); err != nil {
		t.Fatal(err)
	}
	if d.Base.Proto != ProtoRaw {
		t.Errorf("proto = %v, want raw", d.Base.Proto)
	}
	if len(d.Payload) != 100 {
		t.Errorf("payload = %d bytes, want 100", len(d.Payload))
	}
	if d.Elements() != 1 {
		t.Errorf("Elements = %d, want 1", d.Elements())
	}
}

func TestWireLenMinimum(t *testing.T) {
	p := BuildRaw(sampleHeader(ProtoRaw), 0)
	if p.Len() != BaseHeaderLen {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.WireLen() != MinWireLen {
		t.Errorf("WireLen = %d, want %d", p.WireLen(), MinWireLen)
	}
	big := BuildRaw(sampleHeader(ProtoRaw), 2000)
	if big.WireLen() != 2000+BaseHeaderLen {
		t.Errorf("WireLen = %d, want %d", big.WireLen(), 2000+BaseHeaderLen)
	}
}

func TestClone(t *testing.T) {
	p := Build(sampleHeader(ProtoKV), &KVHeader{Pairs: []KVPair{{1, 1}}})
	q := p.Clone()
	q.Data[0] = 0xFF
	if p.Data[0] == 0xFF {
		t.Error("Clone shares Data")
	}
}

func TestReencodeReflectsModification(t *testing.T) {
	p := Build(sampleHeader(ProtoML), &MLHeader{Base: 0, Values: []uint32{1, 2}})
	var d Decoded
	if err := d.DecodePacket(p); err != nil {
		t.Fatal(err)
	}
	d.ML.Values[0] = 100
	d.Base.DstPort = 63
	q := d.Reencode()
	var d2 Decoded
	if err := d2.DecodePacket(q); err != nil {
		t.Fatal(err)
	}
	if d2.ML.Values[0] != 100 || d2.Base.DstPort != 63 {
		t.Errorf("reencode lost modifications: %+v %+v", d2.Base, d2.ML)
	}
}

func TestReencodeRaw(t *testing.T) {
	p := BuildRaw(sampleHeader(ProtoRaw), 10)
	var d Decoded
	if err := d.DecodePacket(p); err != nil {
		t.Fatal(err)
	}
	q := d.Reencode()
	if q.Len() != p.Len() {
		t.Errorf("raw reencode changed length: %d -> %d", p.Len(), q.Len())
	}
}

func TestDecodeUnknownProto(t *testing.T) {
	h := sampleHeader(Proto(99))
	p := Build(h, nil)
	var d Decoded
	if err := d.DecodePacket(p); err == nil {
		t.Error("unknown proto did not error")
	}
}

// Property: header encode/decode is an identity for all field values.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(dst, src uint16, proto, flags uint8, coflow, flow, seq uint32) bool {
		h := Header{
			DstPort: dst, SrcPort: src, Proto: Proto(proto), Flags: flags,
			CoflowID: coflow, FlowID: flow, Seq: seq, Length: 0,
		}
		var g Header
		if _, err := g.Decode(h.Encode(nil)); err != nil {
			return false
		}
		return g == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: ML values survive a round trip for any array content.
func TestMLRoundTripProperty(t *testing.T) {
	f := func(base uint32, worker uint16, vals []uint32) bool {
		if len(vals) > 1000 {
			vals = vals[:1000]
		}
		m := MLHeader{Base: base, Worker: worker, Values: vals}
		var g MLHeader
		if err := g.Decode(m.Encode(nil)); err != nil {
			return false
		}
		if len(g.Values) != len(vals) {
			return false
		}
		for i := range vals {
			if g.Values[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Build → Decode → Reencode → Decode is stable for KV packets.
func TestKVReencodeStableProperty(t *testing.T) {
	f := func(op uint8, keys []uint32) bool {
		if len(keys) > 64 {
			keys = keys[:64]
		}
		pairs := make([]KVPair, len(keys))
		for i, k := range keys {
			pairs[i] = KVPair{Key: k, Value: k ^ 0xDEAD}
		}
		p := Build(sampleHeader(ProtoKV), &KVHeader{Op: KVOp(op % 4), Pairs: pairs})
		var d Decoded
		if err := d.DecodePacket(p); err != nil {
			return false
		}
		q := d.Reencode()
		var d2 Decoded
		if err := d2.DecodePacket(q); err != nil {
			return false
		}
		if len(d2.KV.Pairs) != len(pairs) {
			return false
		}
		for i := range pairs {
			if d2.KV.Pairs[i] != pairs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDecodeML16(b *testing.B) {
	p := Build(sampleHeader(ProtoML), &MLHeader{Values: make([]uint32, 16)})
	var d Decoded
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodePacket(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildKV16(b *testing.B) {
	pairs := make([]KVPair, 16)
	h := sampleHeader(ProtoKV)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(h, &KVHeader{Op: KVGet, Pairs: pairs})
	}
}
