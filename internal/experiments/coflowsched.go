package experiments

import (
	"fmt"
	"sort"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tm"
)

// CoflowSchedResult compares scheduling disciplines at one bottleneck
// egress port carrying several coflows — the §5 extension: a coflow
// processor's programmable TM can run coflow-aware disciplines natively.
type CoflowSchedResult struct {
	Discipline string
	// MeanCCT and MaxCCT are over the coflow set, in drain time.
	MeanCCT sim.Time
	MaxCCT  sim.Time
	// PerCoflow maps id → completion time.
	PerCoflow map[uint32]sim.Time
}

// CoflowSchedConfig sizes the scenario.
type CoflowSchedConfig struct {
	// CoflowSizes maps coflow id → total bytes (drives both the traffic
	// and the clairvoyant SCF ranks).
	CoflowSizes map[uint32]uint64
	// CoflowFlows maps coflow id → member flow count (default 1). A wide
	// elephant is what separates flow-fair from coflow-aware scheduling:
	// per-flow fairness hands the elephant a share per member flow.
	CoflowFlows map[uint32]int
	// PacketPayload is the payload size used for all packets.
	PacketPayload int
	// DrainGbps is the bottleneck rate.
	DrainGbps float64
}

// DefaultCoflowSchedConfig: one 8-flow elephant, two single-flow mice, a
// 100 Gbps port.
func DefaultCoflowSchedConfig() CoflowSchedConfig {
	return CoflowSchedConfig{
		CoflowSizes:   map[uint32]uint64{1: 400_000, 2: 8_000, 3: 16_000},
		CoflowFlows:   map[uint32]int{1: 8},
		PacketPayload: 980, // 1000 B wire packets
		DrainGbps:     100,
	}
}

// CoflowSched runs the same interleaved arrival sequence through FIFO,
// shortest-coflow-first, and fair queueing, and reports per-coflow
// completion times. The paper's thesis in miniature: treating the coflow
// (not the packet or flow) as the scheduling unit is what shrinks the
// completion times applications actually feel.
func CoflowSched(cfg CoflowSchedConfig) (*stats.Table, []CoflowSchedResult, error) {
	if len(cfg.CoflowSizes) == 0 || cfg.PacketPayload <= 0 || cfg.DrainGbps <= 0 {
		return nil, nil, fmt.Errorf("experiments: bad coflow sched config")
	}
	arrivals := coflowArrivals(cfg)

	run := func(name string, enq func(*packet.Packet) bool, deq func() (*packet.Packet, bool)) CoflowSchedResult {
		for _, p := range arrivals {
			enq(p)
		}
		res := CoflowSchedResult{Discipline: name, PerCoflow: make(map[uint32]sim.Time)}
		now := sim.Time(0)
		var d packet.Decoded
		for {
			p, ok := deq()
			if !ok {
				break
			}
			now += sim.Time(float64(p.WireLen()*8) / cfg.DrainGbps * 1000)
			if err := d.DecodePacket(p); err == nil {
				res.PerCoflow[d.Base.CoflowID] = now // last packet wins
			}
		}
		var sum sim.Time
		for _, t := range res.PerCoflow {
			sum += t
			if t > res.MaxCCT {
				res.MaxCCT = t
			}
		}
		res.MeanCCT = sum / sim.Time(len(res.PerCoflow))
		return res
	}

	fifo := tm.NewScheduler(0, tm.FIFORank())
	scf := tm.NewScheduler(0, tm.NewSCFState(cfg.CoflowSizes).Rank())
	// Fair queueing is per FLOW (coflow, member) — the granularity a
	// flow-director switch can see.
	flowOf := func(p *packet.Packet) uint64 {
		var d packet.Decoded
		if err := d.DecodePacket(p); err != nil {
			return 0
		}
		return uint64(d.Base.CoflowID)<<16 | uint64(d.Base.FlowID)
	}
	stfq := tm.NewSTFQScheduler(0, tm.NewSTFQ(flowOf, func(uint64) uint64 { return 1 }))

	results := []CoflowSchedResult{
		run("FIFO (packet-unit)", fifo.Enqueue, fifo.Dequeue),
		run("fair queueing (flow-unit)", stfq.Enqueue, stfq.Dequeue),
		run("shortest-coflow-first (coflow-unit)", scf.Enqueue, scf.Dequeue),
	}

	t := newTable(telemetry.Hub().Reg(), "§5 extension: coflow-aware scheduling at a bottleneck port",
		col{head: "discipline", label: "discipline"},
		col{head: "mean CCT", metric: "exp.coflowsched.mean_cct_ps"},
		col{head: "max CCT (elephant)", metric: "exp.coflowsched.max_cct_ps"})
	for _, r := range results {
		t.AddRow(r.Discipline, r.MeanCCT, r.MaxCCT)
	}
	return t.Table, results, nil
}

// coflowArrivals enqueues the coflows largest-first (the classic
// head-of-line scenario: the elephant's burst is already queued when the
// mice arrive — the worst case for packet-unit FIFO), ties by id.
func coflowArrivals(cfg CoflowSchedConfig) []*packet.Packet {
	ids := make([]uint32, 0, len(cfg.CoflowSizes))
	for id := range cfg.CoflowSizes {
		ids = append(ids, id)
	}
	size := cfg.CoflowSizes
	sort.Slice(ids, func(i, j int) bool {
		if a, b := ids[i], ids[j]; size[a] != size[b] {
			return size[a] > size[b]
		}
		return ids[i] < ids[j]
	})
	wire := uint64(cfg.PacketPayload + packet.BaseHeaderLen)
	var out []*packet.Packet
	for _, id := range ids {
		flows := max(cfg.CoflowFlows[id], 1)
		for k := 0; k < int((size[id]+wire-1)/wire); k++ {
			out = append(out, packet.BuildRaw(packet.Header{
				DstPort: 0, CoflowID: id, FlowID: uint32(k % flows),
			}, cfg.PacketPayload))
		}
	}
	return out
}
