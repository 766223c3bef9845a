package apps

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RunResult captures one application run end-to-end.
type RunResult struct {
	// CCT is the coflow completion time.
	CCT sim.Time
	// Delivered counts packets received by hosts.
	Delivered uint64
	// Injected counts packets hosts sent.
	Injected uint64
	// Errors from the network/switch during the run.
	Errors []error
	// Network gives access to per-host state for correctness checks.
	Network *netsim.Network
}

// runInjections drives a workload through a network and waits for the
// expected number of deliveries (registered on coflowID).
func runInjections(n *netsim.Network, injs []workload.Injection, coflowID uint32, expectDeliveries int) (*RunResult, error) {
	n.Tracker().Expect(coflowID, expectDeliveries)
	for _, inj := range injs {
		n.SendAt(inj.Src, inj.Pkt, inj.At)
	}
	n.Run()
	res := &RunResult{
		Delivered: n.Delivered(),
		Injected:  n.Injected(),
		Errors:    n.Errors(),
		Network:   n,
	}
	st := n.Tracker().Status(coflowID)
	if st == nil {
		return res, fmt.Errorf("apps: coflow %d never tracked", coflowID)
	}
	if !st.Done {
		return res, fmt.Errorf("apps: coflow %d incomplete: delivered %d of %d (errors: %v)",
			coflowID, st.DeliverPkts, expectDeliveries, n.Errors())
	}
	res.CCT = st.CCT()
	return res, nil
}

// DefaultNetHetero returns a default network config where the listed
// hosts' link speeds are overridden (heterogeneous NICs).
func DefaultNetHetero(hosts int, overrides map[int]float64) netsim.Config {
	cfg := netsim.DefaultConfig(hosts)
	cfg.PerHostGbps = make([]float64, hosts)
	for i := range cfg.PerHostGbps {
		cfg.PerHostGbps[i] = cfg.LinkGbps
	}
	for h, g := range overrides {
		if h >= 0 && h < hosts {
			cfg.PerHostGbps[h] = g
		}
	}
	return cfg
}

// GroupRun parameterizes a group-communication run.
type GroupRun struct {
	CoflowID uint32
	GroupID  uint32
	Source   int
	Chunks   int
	ChunkLen int
	// Members is the group size (for the delivery expectation).
	Members int
}

// RunGroupComm drives a chunk stream from the source through a
// group-communication switch and waits until every member received every
// chunk.
func RunGroupComm(sw netsim.SwitchModel, netCfg netsim.Config, gr GroupRun) (*RunResult, error) {
	injs, err := workload.Group(workload.GroupParams{
		CoflowID: gr.CoflowID, GroupID: gr.GroupID, Source: gr.Source,
		Chunks: gr.Chunks, ChunkLen: gr.ChunkLen, Gap: 100 * sim.Nanosecond,
	})
	if err != nil {
		return nil, err
	}
	n, err := netsim.New(netCfg, sw)
	if err != nil {
		return nil, err
	}
	return runInjections(n, injs, gr.CoflowID, gr.Chunks*gr.Members)
}

// RunParamServer drives one aggregation round through the given switch
// (RMT or ADCP) and verifies every worker received the correct aggregated
// model. The switch must have been built by NewParamServerADCP or
// NewParamServerRMT with the same PSConfig.
func RunParamServer(sw netsim.SwitchModel, netCfg netsim.Config, ps PSConfig, coflowID uint32, seed uint64) (*RunResult, error) {
	injs, err := workload.ML(workload.MLParams{
		CoflowID:        coflowID,
		Workers:         ps.Workers,
		ModelSize:       ps.ModelSize,
		ValuesPerPacket: ps.Width,
		Gap:             100 * sim.Nanosecond,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	n, err := netsim.New(netCfg, sw)
	if err != nil {
		return nil, err
	}
	chunks := ps.ModelSize / ps.Width
	res, err := runInjections(n, injs, coflowID, chunks*ps.Workers)
	if err != nil {
		return res, err
	}
	// Correctness: every worker holds the full aggregated model. got is
	// indexed by weight and seen marks the weights a worker received, both
	// reused across workers.
	got := make([]uint32, ps.ModelSize)
	want := make([]uint32, ps.ModelSize)
	for idx := range want {
		want[idx] = workload.MLExpectedSum(seed, ps.Workers, idx)
	}
	seen := make([]uint64, (ps.ModelSize+63)/64)
	var d packet.Decoded
	for w := 0; w < ps.Workers; w++ {
		clear(seen)
		distinct := 0
		for _, p := range n.Host(w).Received {
			if err := d.DecodePacket(p); err != nil {
				return res, err
			}
			for i, v := range d.ML.Values {
				idx := int(d.ML.Base) + i
				if idx >= ps.ModelSize {
					return res, fmt.Errorf("apps: worker %d received weight %d of a %d-weight model", w, idx, ps.ModelSize)
				}
				if seen[idx/64]&(1<<(idx%64)) == 0 {
					seen[idx/64] |= 1 << (idx % 64)
					distinct++
				}
				got[idx] = v
			}
		}
		if distinct != ps.ModelSize {
			return res, fmt.Errorf("apps: worker %d received %d of %d weights", w, distinct, ps.ModelSize)
		}
		for idx, v := range got {
			if v != want[idx] {
				return res, fmt.Errorf("apps: worker %d weight %d = %d, want %d", w, idx, v, want[idx])
			}
		}
	}
	return res, nil
}
