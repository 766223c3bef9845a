package packet

// Arena allocates packets out of chunks instead of one by one, for the
// places that make a packet per packet: a workload generator, a sender, a
// replication log, a switch and its pipelines. The zero value is ready and
// holds nothing until first used; a nil *Arena gives every packet its own
// two allocations, which is what the package-level Build and Packet.Clone do.
//
// The ownership rule: a packet's bytes are written only by the code that
// builds them, before it hands the packet on, and are read-only after. Its
// struct belongs to whoever holds it (a switch sets IngressPort, EgressPort
// and Recirculations on the one it is handed), so a sender, a delta log and
// each multicast replica hold a struct of their own over the same bytes
// (Share). A holder that must write bytes it did not build copies them first
// (Own), as RMT recirculation does to set FlagRecirc.
//
// An arena never frees, resets or reuses, so what it hands out can be kept
// and passed on like a packet from Build. Every Data is cut to cap == len, so
// an append reallocates instead of running into a neighbour; a chunk is
// freed when the last packet in it is.
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
// every set of pipelines a switch builds has an arena of its own. So the
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
	case cur*2 < max:
		return cur * 2
	}
	return max
}

// Chunk cuts n elements from *free with cap == n, starting a new chunk
// when the current one is short: the next size (*size, min, max), doubled
// again until it holds n. Only a request over max gets storage of its own,
// and the chunk keeps serving the smaller ones. It is the tree's one slab
// cutter: min == max gives chunks of a fixed size.
func Chunk[T any](free *[]T, size *int, n, min, max int) []T {
	if n > len(*free) {
		if n > max {
			return make([]T, n)
		}
		next := NextChunk(*size, min, max)
		for next < n {
			next = NextChunk(next, min, max)
		}
		*size, *free = next, make([]T, next)
	}
	s := (*free)[:n:n]
	*free = (*free)[n:]
	return s
}

// alloc returns a blank packet whose Data has length and capacity n.
func (a *Arena) alloc(n int) *Packet {
	p := a.newStruct()
	p.Data = a.newBytes(n)
	return p
}

// newStruct returns a blank packet with no bytes.
func (a *Arena) newStruct() *Packet {
	if a == nil {
		return new(Packet)
	}
	return &Chunk(&a.pkts, &a.pktChunk, 1, minArenaPackets, maxArenaPackets)[0]
}

// newBytes returns n zero bytes.
func (a *Arena) newBytes(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	return Chunk(&a.buf, &a.bufChunk, n, minArenaBytes, maxArenaBytes)
}

// Outs returns an empty slice with room for n packets — the list a switch
// returns from Process — cut from a chunk of pointers as Data is cut from a
// chunk of bytes: cap == n, so appending past it reallocates instead of
// running into the next list, and nothing is ever taken back.
func (a *Arena) Outs(n int) []*Packet {
	return Chunk(&a.outs, &a.outChunk, n, minArenaPackets, maxArenaPackets)[:0]
}

// Share returns a struct of the caller's own over p's bytes.
func (a *Arena) Share(p *Packet) *Packet {
	q := a.newStruct()
	*q = *p
	return q
}

// Own gives p a private copy of its bytes; other holders keep the old ones.
func (a *Arena) Own(p *Packet) {
	data := a.newBytes(len(p.Data))
	copy(data, p.Data)
	p.Data = data
}

// Clone returns a deep copy of p: Share, then Own.
func (a *Arena) Clone(p *Packet) *Packet {
	q := a.Share(p)
	a.Own(q)
	return q
}

// Encoder is an application header as Build takes it.
type Encoder = interface {
	EncodedLen() int
	Encode([]byte) []byte
}

// Build assembles a packet as the package-level Build does.
func (a *Arena) Build(h Header, body Encoder) *Packet {
	if body == nil {
		return a.raw(h, 0)
	}
	p := a.raw(h, body.EncodedLen())
	// Encode appends exactly EncodedLen bytes, so it fills the packet's own
	// bytes; were a header ever to append more, the packet follows the
	// reallocated slice.
	p.Data = body.Encode(p.Data[:BaseHeaderLen])
	return p
}

// raw returns a packet of h, its Length set to n, and n zero bytes after it.
func (a *Arena) raw(h Header, n int) *Packet {
	h.Length = uint16(n)
	p := a.alloc(BaseHeaderLen + n)
	p.EgressPort = -1
	h.Encode(p.Data[:0])
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
	}
	p := a.raw(d.Base, len(d.Payload))
	copy(p.Data[BaseHeaderLen:], d.Payload)
	return p
}
