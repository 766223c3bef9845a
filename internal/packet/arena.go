package packet

// Arena allocates packets out of chunks instead of one by one, for the
// places that make a packet per packet: a workload generator, a sender's
// pristine and retransmitted copies, a replication log, a switch's
// multicast replicas and its deparser. The zero value is ready and holds
// nothing until the first packet is asked of it. A nil *Arena is valid too
// and gives every packet its own two allocations, which is what the
// package-level Build and Packet.Clone do.
//
// An arena only ever hands out fresh memory: it has no free, no reset and
// no reuse, so a packet taken from one can be kept, passed on and written
// for as long as anyone likes, exactly like one from Build. Every Data is
// cut to cap == len, so an append to one packet reallocates instead of
// running into its neighbour. What an arena changes is the garbage
// collector's granularity: a chunk is freed when the last packet in it is.
type Arena struct {
	pkts []Packet  // structs of the current chunk not handed out yet
	buf  []byte    // bytes of the current chunk not handed out yet
	outs []*Packet // pointers of the current chunk not handed out yet (Outs)
	// Size of the chunk in use of each kind; the next one is twice that,
	// up to the cap.
	pktChunk, bufChunk, outChunk int
}

// Chunks start small and double up to a cap. What a chunk leaves unused
// when its arena is dropped is pure overhead, and most arenas are small:
// the experiment suite builds 43 networks for 3 364 packets in all, and
// every pipeline that rewrites a packet has an arena of its own. So the
// cap is low — at 32 KiB the suite allocated 1.4 % more bytes than with
// one allocation per packet, at 4 KiB it breaks even — and that is still
// one allocation per 93 aggregation packets (44 B) plus one per 64 structs.
// Measured on the benchmark's sweep-build and agg-saturated; see "A
// packet's allocation ledger" in docs/PERFORMANCE.md.
const (
	minArenaPackets = 8
	maxArenaPackets = 64 // × 48 B = 3 KiB
	minArenaBytes   = 512
	maxArenaBytes   = 4096
)

// NextChunk returns the size of the chunk after one of size cur: min, then
// doubling up to max. Every pool in the tree that grows does so by this rule.
func NextChunk(cur, min, max int) int {
	switch {
	case cur == 0:
		return min
	case cur < max:
		return cur * 2
	}
	return max
}

// alloc returns a blank packet whose Data has length and capacity n.
func (a *Arena) alloc(n int) *Packet {
	if a == nil {
		return &Packet{Data: make([]byte, n)}
	}
	if len(a.pkts) == 0 {
		a.pktChunk = NextChunk(a.pktChunk, minArenaPackets, maxArenaPackets)
		a.pkts = make([]Packet, a.pktChunk)
	}
	p := &a.pkts[0]
	a.pkts = a.pkts[1:]
	if n > len(a.buf) {
		size := NextChunk(a.bufChunk, minArenaBytes, maxArenaBytes)
		if n > size {
			// Larger than a chunk: the packet gets its own bytes and the
			// current chunk keeps serving the smaller ones.
			p.Data = make([]byte, n)
			return p
		}
		a.bufChunk = size
		a.buf = make([]byte, size)
	}
	p.Data = a.buf[:n:n]
	a.buf = a.buf[n:]
	return p
}

// Outs returns an empty slice with room for n packets — the list a switch
// returns from Process — cut from a chunk of pointers as Data is cut from a
// chunk of bytes: cap == n, so appending past it reallocates instead of
// running into the next list, and nothing is ever taken back.
func (a *Arena) Outs(n int) []*Packet {
	if n > len(a.outs) {
		size := NextChunk(a.outChunk, minArenaPackets, maxArenaPackets)
		if n > size {
			// Larger than a chunk (a wide fan-out's list): its own, as in alloc.
			return make([]*Packet, 0, n)
		}
		a.outChunk = size
		a.outs = make([]*Packet, size)
	}
	out := a.outs[:0:n]
	a.outs = a.outs[n:]
	return out
}

// Clone returns a deep copy of p.
func (a *Arena) Clone(p *Packet) *Packet {
	q := a.alloc(len(p.Data))
	data := q.Data
	*q = *p
	q.Data = data
	copy(data, p.Data)
	return q
}

// encoder is an application header as Build takes it.
type encoder = interface {
	EncodedLen() int
	Encode([]byte) []byte
}

// Build assembles a packet as the package-level Build does.
func (a *Arena) Build(h Header, body encoder) *Packet {
	n := 0
	if body != nil {
		n = body.EncodedLen()
	}
	h.Length = uint16(n)
	p := a.alloc(BaseHeaderLen + n)
	p.EgressPort = -1
	data := h.Encode(p.Data[:0])
	if body != nil {
		// Encode appends exactly EncodedLen bytes, so it fills the
		// packet's own bytes; were a header ever to append more, the
		// packet follows the reallocated slice.
		data = body.Encode(data)
	}
	p.Data = data
	return p
}

// Reencode rebuilds the packet bytes from the decoded headers, reflecting
// any modifications (the deparser step).
func (a *Arena) Reencode(d *Decoded) *Packet {
	switch d.Base.Proto {
	case ProtoML:
		return a.Build(d.Base, &d.ML)
	case ProtoKV:
		return a.Build(d.Base, &d.KV)
	case ProtoDB:
		return a.Build(d.Base, &d.DB)
	case ProtoGraph:
		return a.Build(d.Base, &d.Graph)
	case ProtoGroup:
		return a.Build(d.Base, &d.Group)
	default:
		h := d.Base
		h.Length = uint16(len(d.Payload))
		p := a.alloc(BaseHeaderLen + len(d.Payload))
		p.EgressPort = -1
		p.Data = append(h.Encode(p.Data[:0]), d.Payload...)
		return p
	}
}
