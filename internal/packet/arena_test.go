package packet

import (
	"bytes"
	"testing"
)

// arenaSample returns packets of assorted sizes, straddling the arena's
// first chunks and its oversize path.
func arenaSample() []*Packet {
	var src []*Packet
	for i := 0; i < 400; i++ {
		vals := make([]uint32, 1+i%16)
		for j := range vals {
			vals[j] = uint32(i*31 + j)
		}
		p := Build(Header{Proto: ProtoML, SrcPort: uint16(i), Seq: uint32(i)}, &MLHeader{Base: uint32(i), Values: vals})
		p.IngressPort, p.EgressPort, p.Recirculations = i%7, i%5-1, i%3
		src = append(src, p)
	}
	src = append(src, BuildRaw(Header{Seq: 9000}, maxArenaBytes+100)) // larger than any chunk
	src = append(src, BuildRaw(Header{Seq: 9001}, 0))
	return src
}

// TestArenaPacketsNeverAlias is the arena's whole safety argument: a packet
// from an arena is as private as one from Build. Its Data has no spare
// capacity, so an append moves it instead of growing into the next
// packet's bytes; overwriting every byte of one packet changes no other
// packet and not the packet it was cloned from.
func TestArenaPacketsNeverAlias(t *testing.T) {
	src := arenaSample()
	want := make([][]byte, len(src))
	for i, p := range src {
		want[i] = append([]byte(nil), p.Data...)
	}
	var a Arena
	clones := make([]*Packet, len(src))
	for i, p := range src {
		q := a.Clone(p)
		if cap(q.Data) != len(q.Data) {
			t.Fatalf("clone %d: cap %d != len %d", i, cap(q.Data), len(q.Data))
		}
		if !bytes.Equal(q.Data, want[i]) || q.IngressPort != p.IngressPort || q.EgressPort != p.EgressPort || q.Recirculations != p.Recirculations {
			t.Fatalf("clone %d differs from its source", i)
		}
		clones[i] = q
	}
	check := func(what string, except int) {
		t.Helper()
		for i := range src {
			if !bytes.Equal(src[i].Data, want[i]) {
				t.Fatalf("%s changed source %d", what, i)
			}
			if i != except && !bytes.Equal(clones[i].Data, want[i]) {
				t.Fatalf("%s changed clone %d", what, i)
			}
		}
	}
	for i, q := range clones {
		// Growing a packet must leave the arena's bytes behind.
		grown := append(q.Data, 0xAA, 0xBB, 0xCC, 0xDD)
		for j := range grown {
			grown[j] = 0xEE
		}
		check("append", -1)
		// Scribbling over a packet in place touches that packet only.
		for j := range q.Data {
			q.Data[j] = 0x55
		}
		q.IngressPort, q.EgressPort, q.Recirculations = -9, -9, -9
		check("overwrite", i)
		copy(q.Data, want[i])
	}
}

// TestArenaBuildMatchesBuild: an arena is a different allocator, not a
// different encoder.
func TestArenaBuildMatchesBuild(t *testing.T) {
	var a Arena
	var d Decoded
	for i, p := range arenaSample() {
		if err := d.DecodePacket(p); err != nil {
			t.Fatal(err)
		}
		for name, q := range map[string]*Packet{"Reencode": a.Reencode(&d), "nil arena": (*Arena)(nil).Reencode(&d)} {
			if !bytes.Equal(q.Data, p.Data) || q.EgressPort != -1 || q.IngressPort != 0 || q.Recirculations != 0 {
				t.Fatalf("%s of packet %d differs from Build", name, i)
			}
			if cap(q.Data) != len(q.Data) {
				t.Fatalf("%s of packet %d: cap %d != len %d", name, i, cap(q.Data), len(q.Data))
			}
		}
	}
	if p := a.Build(Header{Proto: ProtoRaw}, nil); len(p.Data) != BaseHeaderLen {
		t.Fatalf("nil body built %d bytes", len(p.Data))
	}
}

// TestArenaChunkSizes: chunks start at the minimum, double, and never
// exceed the cap; a zero arena holds nothing; a packet larger than a chunk
// gets bytes of its own without disturbing the chunk in use.
func TestArenaChunkSizes(t *testing.T) {
	var a Arena
	if a.pkts != nil || a.buf != nil {
		t.Fatal("zero arena holds memory")
	}
	src := BuildRaw(Header{}, 80) // 100 bytes
	var pktChunks, bufChunks []int
	lastPkt, lastBuf := 0, 0
	for i := 0; i < 20000; i++ {
		a.Clone(src)
		if a.pktChunk != lastPkt {
			pktChunks = append(pktChunks, a.pktChunk)
			lastPkt = a.pktChunk
		}
		if a.bufChunk != lastBuf {
			bufChunks = append(bufChunks, a.bufChunk)
			lastBuf = a.bufChunk
		}
		if len(a.pkts) >= maxArenaPackets || len(a.buf) >= maxArenaBytes {
			t.Fatalf("after %d packets: %d structs and %d bytes unissued, over the cap", i+1, len(a.pkts), len(a.buf))
		}
	}
	for name, c := range map[string]struct {
		got      []int
		min, max int
	}{"packet": {pktChunks, minArenaPackets, maxArenaPackets}, "byte": {bufChunks, minArenaBytes, maxArenaBytes}} {
		if len(c.got) == 0 || c.got[0] != c.min || c.got[len(c.got)-1] != c.max {
			t.Fatalf("%s chunk sizes %v: want %d doubling to %d", name, c.got, c.min, c.max)
		}
		for i := 1; i < len(c.got); i++ {
			if c.got[i] != 2*c.got[i-1] {
				t.Fatalf("%s chunk sizes %v do not double", name, c.got)
			}
		}
	}
	before := len(a.buf)
	big := a.Clone(BuildRaw(Header{}, 2*maxArenaBytes))
	if len(big.Data) != BaseHeaderLen+2*maxArenaBytes || cap(big.Data) != len(big.Data) || len(a.buf) != before {
		t.Fatalf("oversized packet: len %d cap %d, chunk moved %d -> %d", len(big.Data), cap(big.Data), before, len(a.buf))
	}
}

// TestArenaAmortisesAllocations: the point of the exercise.
func TestArenaAmortisesAllocations(t *testing.T) {
	src := BuildRaw(Header{}, 24) // 44 bytes, an aggregation packet
	const n = 6144
	allocs := testing.AllocsPerRun(5, func() {
		var a Arena
		for i := 0; i < n; i++ {
			a.Clone(src)
		}
	})
	if perPkt := allocs / n; perPkt > 0.05 {
		t.Fatalf("an arena allocates %.3f objects per packet, want at most 0.05", perPkt)
	}
}

// TestArenaOutsNeverAlias is the same argument for the output lists a
// switch cuts from its arena: each has exactly the room asked for, so
// filling one, or appending past its end, never writes into another, and
// the lists are amortised — a unicast reply's costs a 64th of an
// allocation, and an aggregation result's 12-way fan-out, larger than the
// first chunk, a fifth.
func TestArenaOutsNeverAlias(t *testing.T) {
	var a Arena
	var lists [][]*Packet
	marks := make([]*Packet, 300)
	for i := range marks {
		marks[i] = &Packet{IngressPort: i}
		n := 1 + i%3
		switch {
		case i == 100:
			n = maxArenaPackets + 1 // larger than any chunk
		case i >= 200:
			n = 12 // larger than the first chunk
		}
		out := a.Outs(n)
		if len(out) != 0 || cap(out) != n {
			t.Fatalf("Outs(%d): len %d cap %d", n, len(out), cap(out))
		}
		for j := 0; j < n; j++ {
			out = append(out, marks[i])
		}
		lists = append(lists, out)
	}
	for _, out := range lists {
		_ = append(out, &Packet{IngressPort: -1}) // one past the end: must move, not spill
	}
	for i, out := range lists {
		for _, p := range out {
			if p != marks[i] {
				t.Fatalf("list %d holds packet %d: lists share storage", i, p.IngressPort)
			}
		}
	}
	for _, n := range []int{1, 12} {
		var b Arena
		perChunk := maxArenaPackets / n
		want := float64((maxArenaPackets + perChunk - 1) / perChunk)
		if per := testing.AllocsPerRun(10, func() {
			for i := 0; i < maxArenaPackets; i++ {
				_ = b.Outs(n)
			}
		}); per > want {
			t.Errorf("%d lists of %d took %.1f allocations, want at most %.0f", maxArenaPackets, n, per, want)
		}
	}
}

// FuzzChunk drives packet.Chunk with request sizes from 0 to twice the cap
// (the first two bytes pick min and max, each later byte one request). Every
// slice it hands out has exactly the length asked for and no spare room,
// none overlaps another (each is filled with a marker of its own and all
// are checked at the end), the chunk size never passes the cap, and after a
// request within the cap the chunk size holds it: only a request over the
// cap gets storage of its own.
func FuzzChunk(f *testing.F) {
	f.Add([]byte{7, 3, 1, 1, 12, 12, 12, 12, 12, 0, 5})
	f.Add([]byte{0, 4, 16, 1, 17, 32, 33, 2})
	f.Add([]byte{2, 2, 255, 200, 3, 90, 9})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		min := 1 + int(in[0])%16
		max := min<<(in[1]%4) + int(in[1])/4%min // not always a doubling of min
		var free []int
		size := 0
		var got [][]int
		for i, b := range in[2:] {
			n := int(b) % (2*max + 1)
			s := Chunk(&free, &size, n, min, max)
			if len(s) != n || cap(s) != n {
				t.Fatalf("request %d of %d: len %d cap %d", i, n, len(s), cap(s))
			}
			if size > max {
				t.Fatalf("request %d of %d: chunk size %d over the cap %d", i, n, size, max)
			}
			if n <= max && size < n {
				t.Fatalf("request %d of %d: chunk size %d does not hold it (cap %d)", i, n, size, max)
			}
			for j := range s {
				s[j] = i + 1
			}
			got = append(got, s)
		}
		for i, s := range got {
			for _, v := range s {
				if v != i+1 {
					t.Fatalf("request %d holds request %d's marker: slices overlap", i, v-1)
				}
			}
		}
	})
}
