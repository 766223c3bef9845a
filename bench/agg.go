package main

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/workload"
)

// aggKind selects which of the three parameter-aggregation workloads runs.
type aggKind int

const (
	aggLine aggKind = iota
	aggSaturated
	aggFailover
)

const (
	aggCoflow  = 1
	aggWorkers = 12
	aggWidth   = 4
	// aggRegCells fits agg-line's 4096 chunks on both architectures.
	aggRegCells    = 16384
	aggTableCells  = 4096
	aggCrashAt     = 200 * sim.Microsecond // ~40 % of the lossy CCT
	aggLossRate    = 0.01
	aggServiceRate = 5e5 // E16: 2 µs per traversal
)

var archs = [2]string{"adcp", "rmt"}

// aggRunner runs one aggregation round per architecture per unit. Without
// a tracer a round is one apps.RunParamServer call; with one it is the
// same sequence assembled from RunParamServer's public parts, so each
// gets a span. The digest proves the two agree.
type aggRunner struct {
	kind aggKind
	ps   apps.PSConfig
	seed uint64
	want []uint32 // expected aggregate of every weight
	// Prebuilt switches, reset between rounds (not for aggFailover, whose
	// crash destroys the primary: it builds a fresh pair inside the round).
	adcp *core.Switch
	rmt  *rmt.Switch

	// The rounds of the last unit, kept for verify.
	nets   [2]*netsim.Network
	runErr [2]error
}

func newAgg(e env, kind aggKind) (runner, error) {
	model := 16384
	if kind == aggSaturated {
		model = 2048
	}
	if e.quick {
		model /= 64 // the saturated herd is quadratic: 32 weights is already ~0.1 %
	}
	r := &aggRunner{
		kind: kind,
		ps:   apps.PSConfig{Workers: aggWorkers, ModelSize: model, Width: aggWidth},
		seed: e.seed,
		want: make([]uint32, model),
	}
	for i := range r.want {
		r.want[i] = workload.MLExpectedSum(e.seed, aggWorkers, i)
	}
	if kind != aggFailover {
		var err error
		if r.adcp, err = apps.NewParamServerADCP(adcpGeometry(aggTableCells, aggRegCells), r.ps); err != nil {
			return nil, err
		}
		if r.rmt, err = apps.NewParamServerRMT(rmtGeometry(aggTableCells, aggRegCells), r.ps); err != nil {
			return nil, err
		}
	}
	// A warm-up unit grows the heap and the engine's pools to working
	// size. The saturated unit runs for seconds: it is its own warm-up.
	if kind != aggSaturated {
		if err := r.unit(nil); err != nil {
			return nil, err
		}
		if st := r.verify(); st.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d deliveries failed:\n%s", st.failed, st.attempted, st.sim)
		}
	}
	return r, nil
}

// build returns a fresh switch of architecture a.
func (r *aggRunner) build(a int) (netsim.SwitchModel, error) {
	if a == 0 {
		return apps.NewParamServerADCP(adcpGeometry(aggTableCells, aggRegCells), r.ps)
	}
	return apps.NewParamServerRMT(rmtGeometry(aggTableCells, aggRegCells), r.ps)
}

// pair returns the switch a round of architecture a runs on, and its
// standby: the prebuilt switch alone, or a fresh pair for aggFailover.
func (r *aggRunner) pair(a int) (sw, standby netsim.SwitchModel, err error) {
	if r.kind != aggFailover {
		if a == 0 {
			return r.adcp, nil, nil
		}
		return r.rmt, nil, nil
	}
	if sw, err = r.build(a); err == nil {
		standby, err = r.build(a)
	}
	return sw, standby, err
}

// netConfig returns a fresh network config: Config holds per-run pointers.
func (r *aggRunner) netConfig(standby netsim.SwitchModel) netsim.Config {
	cfg := netsim.DefaultConfig(benchPorts)
	switch r.kind {
	case aggSaturated:
		cfg.ServiceRatePPS = aggServiceRate
	case aggFailover:
		rec := faults.DefaultRecovery()
		cfg.Recovery = &rec
		cfg.Standby = standby
		cfg.Faults = &faults.Plan{
			Seed:          r.seed,
			Link:          faults.LinkFaults{LossRate: aggLossRate},
			SwitchCrashAt: aggCrashAt,
		}
	}
	return cfg
}

func (r *aggRunner) prepare() error {
	if r.kind != aggFailover {
		apps.ResetParamServerADCP(r.adcp)
		apps.ResetParamServerRMT(r.rmt)
	}
	return nil
}

func (r *aggRunner) unit(tr *tracer) error {
	for a := range archs {
		r.nets[a], r.runErr[a] = nil, nil
		if tr == nil {
			r.roundPlain(a)
		} else if err := r.roundTraced(a, tr); err != nil {
			return err
		}
	}
	return nil
}

// roundPlain is the untraced round: construction of a failover pair,
// generation, netsim.New, injection, Run and RunParamServer's own
// verification are all inside.
func (r *aggRunner) roundPlain(a int) {
	sw, standby, err := r.pair(a)
	if err != nil {
		r.runErr[a] = err
		return
	}
	res, err := apps.RunParamServer(sw, r.netConfig(standby), r.ps, aggCoflow, r.seed)
	if res != nil {
		r.nets[a] = res.Network
	}
	r.runErr[a] = err
}

func (r *aggRunner) roundTraced(a int, tr *tracer) error {
	tr.begin("round." + archs[a])
	defer tr.end()
	tr.begin("apps.build")
	sw, standby, err := r.pair(a)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("workload.gen")
	injs, err := workload.ML(workload.MLParams{
		CoflowID: aggCoflow, Workers: r.ps.Workers, ModelSize: r.ps.ModelSize,
		ValuesPerPacket: r.ps.Width, Gap: 100 * sim.Nanosecond, Seed: r.seed,
	})
	tr.end()
	if err != nil {
		return err
	}
	// The standby replays the primary's packets inside Run, so its calls
	// are switch.process time too.
	primary := &tap{inner: sw, timed: true}
	var second *tap
	if standby != nil {
		second = &tap{inner: standby, timed: true}
		standby = second
	}
	tr.begin("netsim.new")
	n, err := netsim.New(r.netConfig(standby), primary)
	tr.end()
	if err != nil {
		return err
	}
	n.Tracker().Expect(aggCoflow, r.expected())
	tr.begin("netsim.inject")
	for _, inj := range injs {
		n.SendAt(inj.Src, inj.Pkt, inj.At)
	}
	tr.end()
	tr.begin("netsim.run")
	n.Run()
	total, calls := primary.total, primary.calls
	if second != nil {
		total, calls = total+second.total, calls+second.calls
	}
	tr.aggregate("switch.process", total, calls)
	tr.end()
	r.nets[a] = n
	tr.begin("apps.verify")
	if bad := r.check(n); bad > 0 {
		r.runErr[a] = fmt.Errorf("%d deliveries failed verification", bad)
	}
	tr.end()
	return nil
}

// expected is the number of deliveries of one round: every worker gets
// every aggregated chunk.
func (r *aggRunner) expected() int { return r.ps.ModelSize / r.ps.Width * r.ps.Workers }

// check counts the deliveries of a finished round that are missing,
// duplicated or carry a wrong sum.
func (r *aggRunner) check(n *netsim.Network) int {
	hosts := make([][]*packet.Packet, r.ps.Workers)
	for w := range hosts {
		hosts[w] = n.Host(w).Received
	}
	return checkAgg(hosts, r.ps.ModelSize, r.ps.Width, r.want)
}

// checkAgg verifies what each worker received against the expected sums
// and returns the number of failed deliveries: wrong, duplicated, or
// missing out of model/width per worker.
func checkAgg(hosts [][]*packet.Packet, model, width int, want []uint32) int {
	chunks := model / width
	bad := 0
	var d packet.Decoded
	for _, received := range hosts {
		seen := make([]bool, chunks)
		got := 0
		for _, p := range received {
			if err := d.DecodePacket(p); err != nil || d.Base.Proto != packet.ProtoML {
				bad++
				continue
			}
			base := int(d.ML.Base)
			if base%width != 0 || base+len(d.ML.Values) > model || len(d.ML.Values) != width || seen[base/width] {
				bad++
				continue
			}
			seen[base/width] = true
			got++
			for i, v := range d.ML.Values {
				if v != want[base+i] {
					bad++
					break
				}
			}
		}
		bad += chunks - got
	}
	return bad
}

func (r *aggRunner) verify() unitStats {
	var st unitStats
	var sims []string
	for a := range archs {
		exp := r.expected()
		st.attempted += exp
		n := r.nets[a]
		if n == nil {
			st.failed += exp
			sims = append(sims, fmt.Sprintf("%s: no run: %v", archs[a], r.runErr[a]))
			continue
		}
		bad := r.check(n)
		// Sums can be right while the run is not: a ledger or tracker
		// invariant, a switch error, an incomplete coflow.
		if bad == 0 && (r.runErr[a] != nil || len(n.Errors()) > 0) {
			bad = exp
		}
		if bad > exp {
			bad = exp
		}
		st.failed += bad
		led := n.Ledger()
		st.events += n.Engine().Fired()
		st.retx += led.UplinkRetx + led.DownlinkRetx
		s := fmt.Sprintf("%s: cct=%d injected=%d delivered=%d events=%d ledger=%+v",
			archs[a], n.Tracker().Status(aggCoflow).CCT(), n.Injected(), n.Delivered(), n.Engine().Fired(), led)
		if pair := n.HA(); pair != nil {
			s += fmt.Sprintf(" ha=%+v", pair.Stats())
		}
		sims = append(sims, s)
	}
	st.sim = strings.Join(sims, "\n")
	return st
}

func (r *aggRunner) close() error { return nil }
