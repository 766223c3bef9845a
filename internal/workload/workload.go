// Package workload generates the synthetic traffic of the paper's Table 1
// application patterns. No public traces of these workloads exist (and the
// paper uses none), so generators are parameterized by the communication
// *shape* the paper describes: all-to-all weight exchange (ML),
// filter-aggregate-reshuffle (DB analytics), BSP supersteps (graph pattern
// mining), and switch-initiated group transfer. All generators are
// deterministic for a given seed.
package workload

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Injection is one packet to send: host src transmits Pkt at time At.
type Injection struct {
	Src int
	Pkt *packet.Packet
	At  sim.Time
}

// MLParams sizes an all-to-all parameter-aggregation round.
type MLParams struct {
	CoflowID  uint32
	Workers   int
	ModelSize int // total weights in the model
	// ValuesPerPacket is the array width senders use (1 = scalar packets,
	// the RMT-restructured format; 16 = full ADCP arrays).
	ValuesPerPacket int
	// Gap is the inter-packet spacing per worker.
	Gap sim.Time
	// Seed drives the synthetic weight values.
	Seed uint64
}

// Validate checks the parameters.
func (p MLParams) Validate() error {
	if p.Workers <= 0 || p.ModelSize <= 0 || p.ValuesPerPacket <= 0 {
		return fmt.Errorf("workload: bad ML params %+v", p)
	}
	return nil
}

// ML generates one aggregation round: every worker sends the full model,
// chunked into ValuesPerPacket-wide packets. Weight w of worker k has value
// derived from (seed, k, w) so tests can recompute expected sums. The
// round's packets come out of one arena and share nothing else: the header
// and its value buffer are encoded into each packet and reused for the next.
func ML(p MLParams) ([]Injection, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	perWorker := (p.ModelSize + p.ValuesPerPacket - 1) / p.ValuesPerPacket
	injs := make([]Injection, 0, p.Workers*perWorker)
	var arena packet.Arena
	ml := packet.MLHeader{Values: make([]uint32, p.ValuesPerPacket)}
	for w := 0; w < p.Workers; w++ {
		t := sim.Time(0)
		for base := 0; base < p.ModelSize; base += p.ValuesPerPacket {
			n := p.ValuesPerPacket
			if base+n > p.ModelSize {
				n = p.ModelSize - base
			}
			ml.Base, ml.Worker, ml.Values = uint32(base), uint16(w), ml.Values[:n]
			for i := range ml.Values {
				ml.Values[i] = MLWeight(p.Seed, w, base+i)
			}
			flags := uint8(0)
			if base+n >= p.ModelSize {
				flags = packet.FlagLast
			}
			pkt := arena.Build(packet.Header{
				Proto:    packet.ProtoML,
				SrcPort:  uint16(w),
				CoflowID: p.CoflowID,
				FlowID:   uint32(w),
				Seq:      uint32(base),
				Flags:    flags,
			}, &ml)
			injs = append(injs, Injection{Src: w, Pkt: pkt, At: t})
			t += p.Gap
		}
	}
	return injs, nil
}

// MLWeight is the deterministic synthetic weight of (seed, worker, index).
// Values stay small so sums across ≤2^16 workers cannot overflow uint32.
func MLWeight(seed uint64, worker, index int) uint32 {
	x := seed ^ uint64(worker)<<32 ^ uint64(index)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return uint32(x % 1000)
}

// MLExpectedSum returns the aggregated value of weight index across all
// workers — the ground truth the switch must reproduce.
func MLExpectedSum(seed uint64, workers, index int) uint32 {
	var sum uint32
	for w := 0; w < workers; w++ {
		sum += MLWeight(seed, w, index)
	}
	return sum
}

// KVParams sizes a key/value cache workload.
type KVParams struct {
	CoflowID      uint32
	Clients       int
	OpsPerClient  int
	KeysPerPacket int
	KeySpace      uint32 // keys drawn from [0, KeySpace)
	PutFraction   float64
	Gap           sim.Time
	Seed          uint64
}

// Validate checks the parameters.
func (p KVParams) Validate() error {
	if p.Clients <= 0 || p.OpsPerClient <= 0 || p.KeysPerPacket <= 0 || p.KeySpace == 0 {
		return fmt.Errorf("workload: bad KV params %+v", p)
	}
	if p.PutFraction < 0 || p.PutFraction > 1 {
		return fmt.Errorf("workload: put fraction %v", p.PutFraction)
	}
	return nil
}

// KV generates batched cache operations: each client sends OpsPerClient
// packets of KeysPerPacket uniformly drawn keys. As in ML, the packets come
// out of one arena, each encoded from the same reused header.
func KV(p KVParams) ([]Injection, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(p.Seed)
	injs := make([]Injection, 0, p.Clients*p.OpsPerClient)
	var arena packet.Arena
	kv := packet.KVHeader{Pairs: make([]packet.KVPair, p.KeysPerPacket)}
	for c := 0; c < p.Clients; c++ {
		t := sim.Time(0)
		for op := 0; op < p.OpsPerClient; op++ {
			for i := range kv.Pairs {
				// The whole pair: a GET after a PUT carries zero values.
				kv.Pairs[i] = packet.KVPair{Key: uint32(rng.Uint64()) % p.KeySpace}
			}
			kv.Op = packet.KVGet
			if rng.Float64() < p.PutFraction {
				kv.Op = packet.KVPut
				for i := range kv.Pairs {
					kv.Pairs[i].Value = uint32(rng.Uint64())
				}
			}
			pkt := arena.Build(packet.Header{
				Proto:    packet.ProtoKV,
				SrcPort:  uint16(c),
				CoflowID: p.CoflowID,
				FlowID:   uint32(c),
				Seq:      uint32(op),
			}, &kv)
			injs = append(injs, Injection{Src: c, Pkt: pkt, At: t})
			t += p.Gap
		}
	}
	return injs, nil
}

// DBParams sizes a filter-aggregate-reshuffle query.
type DBParams struct {
	CoflowID        uint32
	Query           uint16
	Sources         int
	TuplesPerSource int
	TuplesPerPacket int
	KeySpace        uint32
	// Selectivity is the filter pass rate applied at the source.
	Selectivity float64
	Gap         sim.Time
	Seed        uint64
}

// Validate checks the parameters.
func (p DBParams) Validate() error {
	if p.Sources <= 0 || p.TuplesPerSource <= 0 || p.TuplesPerPacket <= 0 || p.KeySpace == 0 {
		return fmt.Errorf("workload: bad DB params %+v", p)
	}
	if p.Selectivity <= 0 || p.Selectivity > 1 {
		return fmt.Errorf("workload: selectivity %v", p.Selectivity)
	}
	return nil
}

// DB generates the scan output of each source: filtered tuples batched
// into packets, keyed uniformly, with measure 1 (so aggregated measures
// count tuples and tests can verify totals).
func DB(p DBParams) ([]Injection, int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	rng := sim.NewRNG(p.Seed)
	var injs []Injection
	total := 0
	for s := 0; s < p.Sources; s++ {
		t := sim.Time(0)
		var batch []packet.DBTuple
		flush := func(last bool) {
			if len(batch) == 0 {
				return
			}
			flags := uint8(0)
			if last {
				flags = packet.FlagLast
			}
			pkt := packet.Build(packet.Header{
				Proto:    packet.ProtoDB,
				SrcPort:  uint16(s),
				CoflowID: p.CoflowID,
				FlowID:   uint32(s),
				Flags:    flags,
			}, &packet.DBHeader{Query: p.Query, Stage: 0, Tuples: batch})
			injs = append(injs, Injection{Src: s, Pkt: pkt, At: t})
			t += p.Gap
			batch = nil
		}
		for i := 0; i < p.TuplesPerSource; i++ {
			if rng.Float64() >= p.Selectivity {
				continue // filtered out at the source
			}
			batch = append(batch, packet.DBTuple{
				Key:     uint32(rng.Uint64()) % p.KeySpace,
				Measure: 1,
			})
			total++
			if len(batch) == p.TuplesPerPacket {
				flush(i == p.TuplesPerSource-1)
			}
		}
		flush(true)
	}
	return injs, total, nil
}

// GraphParams sizes a BSP pattern-mining run.
type GraphParams struct {
	CoflowID       uint32
	Hosts          int
	Vertices       uint32
	EdgesPerHost   int
	EdgesPerPacket int
	Rounds         int
	Gap            sim.Time
	Seed           uint64
}

// Validate checks the parameters.
func (p GraphParams) Validate() error {
	if p.Hosts <= 0 || p.Vertices == 0 || p.EdgesPerHost <= 0 || p.EdgesPerPacket <= 0 || p.Rounds <= 0 {
		return fmt.Errorf("workload: bad graph params %+v", p)
	}
	return nil
}

// Graph generates BSP supersteps: in each round every host sends its batch
// of candidate edges (uniformly random endpoints). Rounds are separated in
// time so the barrier structure is visible in the arrival schedule.
func Graph(p GraphParams) ([]Injection, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(p.Seed)
	var injs []Injection
	roundSpan := p.Gap * sim.Time(p.EdgesPerHost/p.EdgesPerPacket+2)
	for r := 0; r < p.Rounds; r++ {
		for h := 0; h < p.Hosts; h++ {
			t := sim.Time(r) * roundSpan
			for e := 0; e < p.EdgesPerHost; e += p.EdgesPerPacket {
				n := p.EdgesPerPacket
				if e+n > p.EdgesPerHost {
					n = p.EdgesPerHost - e
				}
				edges := make([]packet.Edge, n)
				for i := range edges {
					edges[i] = packet.Edge{
						Src: uint32(rng.Uint64()) % p.Vertices,
						Dst: uint32(rng.Uint64()) % p.Vertices,
					}
				}
				pkt := packet.Build(packet.Header{
					Proto:    packet.ProtoGraph,
					SrcPort:  uint16(h),
					CoflowID: p.CoflowID,
					FlowID:   uint32(h),
					Seq:      uint32(r),
				}, &packet.GraphHeader{Round: uint16(r), Edges: edges})
				injs = append(injs, Injection{Src: h, Pkt: pkt, At: t})
				t += p.Gap
			}
		}
	}
	return injs, nil
}

// GroupParams sizes a switch-initiated group transfer.
type GroupParams struct {
	CoflowID uint32
	GroupID  uint32
	Source   int
	Chunks   int
	ChunkLen int
	Gap      sim.Time
}

// Validate checks the parameters.
func (p GroupParams) Validate() error {
	if p.Chunks <= 0 || p.ChunkLen <= 0 || p.Source < 0 {
		return fmt.Errorf("workload: bad group params %+v", p)
	}
	return nil
}

// Group generates the source's chunk stream; the switch replicates each
// chunk to the group (done by the app program, not the generator).
func Group(p GroupParams) ([]Injection, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var injs []Injection
	t := sim.Time(0)
	for c := 0; c < p.Chunks; c++ {
		payload := make([]byte, p.ChunkLen)
		for i := range payload {
			payload[i] = byte(c + i)
		}
		flags := uint8(0)
		if c == p.Chunks-1 {
			flags = packet.FlagLast
		}
		pkt := packet.Build(packet.Header{
			Proto:    packet.ProtoGroup,
			SrcPort:  uint16(p.Source),
			CoflowID: p.CoflowID,
			Flags:    flags,
		}, &packet.GroupHeader{GroupID: p.GroupID, Chunk: uint32(c), Total: uint32(p.Chunks), Payload: payload})
		injs = append(injs, Injection{Src: p.Source, Pkt: pkt, At: t})
		t += p.Gap
	}
	return injs, nil
}
