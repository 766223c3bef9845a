// Package netsim provides the host/link substrate around a switch model:
// hosts attached to switch ports, links with serialization and propagation
// delay, and a discrete-event harness that injects packets, runs them
// through the switch, and delivers outputs back to hosts with coflow
// completion tracking.
//
// The switch models themselves (rmt.Switch, core.Switch) are synchronous;
// netsim adds time. Timing here is deliberately simple — store-and-forward
// with a fixed switch latency — because the experiments measure *relative*
// behavior (RMT vs ADCP on identical arrivals), not absolute datacenter
// latencies.
package netsim

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/coflow"
	"repro/internal/faults"
	"repro/internal/ha"
	"repro/internal/packet"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// SwitchModel is any switch that can synchronously process one packet and
// return the delivered outputs. Both rmt.Switch and core.Switch satisfy it.
// Process may rewrite the struct it is handed, never its bytes (packet.Arena).
type SwitchModel interface {
	Process(pkt *packet.Packet) ([]*packet.Packet, error)
}

// Config describes the network around the switch.
type Config struct {
	// Hosts is the number of attached hosts; host i connects to switch
	// port i, so it must not exceed the switch's port count.
	Hosts int
	// LinkGbps is the host link speed.
	LinkGbps float64
	// PerHostGbps, when non-nil, overrides LinkGbps per host (Table 1's
	// group-communication row: "servers have different NIC capabilities").
	PerHostGbps []float64
	// PropDelay is the one-way propagation delay per link.
	PropDelay sim.Time
	// SwitchLatency is the fixed store-and-forward latency through the
	// switch (pipeline depth / clock, TM queuing aside).
	SwitchLatency sim.Time
	// ServiceRatePPS, when positive, models the switch's aggregate
	// ingress service rate: each pipeline traversal occupies the switch
	// for 1/rate seconds, so recirculated passes consume real capacity
	// and back-pressure later arrivals. The switch is a single-server
	// FIFO queue: packets are admitted in the order they first reach it
	// (by time, then by event sequence), and an arrival never passes a
	// packet already waiting — not even one that lands in the exact
	// picosecond the switch frees. Zero = infinitely fast switch (the
	// default; experiments that only need functional behavior); negative
	// or NaN is rejected. Requires the switch to implement
	// TraversalCounter; ignored otherwise.
	ServiceRatePPS float64
	// Faults, when non-nil, injects the plan's link loss/corruption, link
	// down windows, switch stalls, and host crashes into the run. The
	// injector draws from its own RNG (seeded by the plan), so adding
	// faults never perturbs application-level random streams.
	Faults *faults.Plan
	// Recovery, when non-nil, enables end-host reliability: timed-out
	// transmissions retransmit with exponential backoff under a bounded
	// retry budget, and duplicate copies are suppressed before the switch
	// program. With Recovery nil, faulted packets drop terminally (with
	// accounting).
	Recovery *faults.Recovery
	// Standby, when non-nil, is a warm standby replica of the switch: the
	// primary ships per-packet state deltas to it over a sync channel, and
	// on a Faults.SwitchCrashAt crash the controller promotes it while end
	// hosts redirect via retransmission (which is why Standby requires
	// Recovery). The standby must be built identically to the primary —
	// replication is by deterministic re-execution. See docs/HA.md.
	Standby SwitchModel
	// HA tunes the replication channel and the failover controller; nil
	// uses ha.DefaultOptions(). Only meaningful with Standby set.
	HA *ha.Options
	// Telemetry is the hub the network and its switches observe into:
	// metrics, flight ring, trace and sampler. Nil observes nothing.
	Telemetry *telemetry.Telemetry
}

// TraversalCounter is implemented by switch models that can report their
// cumulative ingress traversals (both rmt.Switch and core.Switch do); the
// service-rate model uses the per-packet traversal delta as its cost.
type TraversalCounter interface {
	IngressTraversals() uint64
}

// Instrumentable is implemented by switch models that can attach themselves
// to a telemetry sink (both rmt.Switch and core.Switch do). New detects it
// and wires the switch, and a standby, to Config.Telemetry.
type Instrumentable interface {
	Instrument(tel *telemetry.Telemetry, now func() sim.Time)
}

// DefaultConfig: 100 Gbps links, 500 ns propagation, 1 µs switch latency.
func DefaultConfig(hosts int) Config {
	return Config{
		Hosts:         hosts,
		LinkGbps:      100,
		PropDelay:     500 * sim.Nanosecond,
		SwitchLatency: sim.Microsecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Hosts <= 0:
		return fmt.Errorf("netsim: %d hosts", c.Hosts)
	case c.LinkGbps <= 0:
		return fmt.Errorf("netsim: link %v Gbps", c.LinkGbps)
	case c.PropDelay < 0 || c.SwitchLatency < 0:
		return fmt.Errorf("netsim: negative delay")
	case c.ServiceRatePPS < 0 || math.IsNaN(c.ServiceRatePPS):
		return fmt.Errorf("netsim: service rate %v pps", c.ServiceRatePPS)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.Recovery != nil {
		if err := c.Recovery.Validate(); err != nil {
			return err
		}
	}
	switch {
	case c.Standby != nil && c.Recovery == nil:
		return fmt.Errorf("netsim: standby requires recovery (failover redirects via retransmission)")
	case c.Standby != nil && c.ServiceRatePPS > 0:
		return fmt.Errorf("netsim: standby with a service-rate model is not supported")
	case c.HA != nil && c.Standby == nil:
		return fmt.Errorf("netsim: HA options without a standby")
	}
	return nil
}

// Host is one attached server.
type Host struct {
	ID       int
	Received []*packet.Packet
	// RxBytes counts wire bytes received.
	RxBytes uint64
}

// Network is the event-driven harness.
type Network struct {
	cfg     Config
	eng     *sim.Engine
	sw      SwitchModel
	hosts   []host
	tracker *coflow.Tracker

	// swBusyUntil models the switch's service capacity (ServiceRatePPS):
	// counter is the switch's traversal count and perTraversal the time one
	// traversal occupies it, both resolved once in New (counter stays nil
	// when no rate is configured or the switch cannot report traversals).
	swBusyUntil  sim.Time
	counter      TraversalCounter
	perTraversal sim.Time
	// Arrivals that found the switch busy wait in an intrusive FIFO (linked
	// through pktEvent.next); wake is the one pending event that admits
	// them, posted for swBusyUntil whenever the queue is non-empty.
	waitHead, waitTail *pktEvent
	waiting            int

	// Sends that have not started wait in their host's queue (see host), in
	// chunks that return to freeChunks once drained; chunkSlab and runSlab
	// are the unissued ends of the slabs their headers and SendEvery's runs
	// are cut from. armEach is for tests: every send takes the out-of-order
	// path.
	freeChunks *sendChunk
	chunkSlab  []sendChunk
	runSlab    []sendRun
	armEach    bool

	// freeEv recycles the per-packet event records (see pktEvent), made
	// evSlab at a time; txSlab, rxSlab and chains are the unissued ends of
	// the chunks recovery states and causal accounts are cut from (the *N
	// are chunk sizes, see cut), retired and txCut are newTxState's, and
	// arena backs the packet structs a sender retransmits. All are nil until
	// a packet needs them.
	freeEv                         *pktEvent
	evSlab                         int
	txSlab                         []txState
	rxSlab                         []rxState
	chains                         []telemetry.Chain
	txN, rxN, chunkN, runN, chainN int
	retired                        [2]struct{ head, tail *txState }
	txCut                          int
	arena                          packet.Arena

	// OnDeliver, when set, observes every host delivery.
	OnDeliver func(host int, pkt *packet.Packet, now sim.Time)

	// FlightSink overrides where a run-level invariant violation dumps
	// the flight-recorder ring (nil = stderr). Tests capture dumps here.
	FlightSink io.Writer

	injected  uint64
	delivered uint64
	errs      []error

	// inj evaluates the fault plan (nil on a perfect network); rec holds
	// the recovery knobs (nil when faults drop terminally). led is the
	// exact packet ledger CheckConservation audits.
	inj *faults.Injector
	rec *faults.Recovery
	led Ledger

	// pair replicates the switch onto the configured standby (nil without
	// one); swCrashed marks a standby-less switch killed by the fault
	// plan. txSeq hands each original uplink packet a unique id — the key
	// duplicate suppression survives failover on.
	pair      *ha.Pair
	swCrashed bool
	txSeq     uint64

	// recorder is Config.Telemetry's (nil without one): every notable event
	// goes to its flight ring, dumped when a run-level invariant trips. The
	// network's trace threads stay nil, and detail false, unless it
	// exports, so the untraced hot path pays one nil check.
	recorder                  *telemetry.Recorder
	detail                    bool
	txTrack, swTrack, rxTrack *telemetry.Track

	// e2eLat holds one bounded latency histogram per host port (nil when
	// metrics are off): simulated time from a packet's transmission start
	// to its delivery at the destination host, including recirculation
	// passes and link/switch queueing.
	e2eLat []*telemetry.Histogram

	// Causal-chain state (nil without telemetry): attr collects each
	// coflow's critical-path chain; spans is the span thread the chains
	// are exported on (exporting runs only); coflowSpans holds each
	// coflow's root span id; reg/inst let Run publish cct.attr.* series.
	attr        *telemetry.CritPath
	spans       *telemetry.Track
	coflowSpans map[uint32]telemetry.SpanID
	reg         *telemetry.Registry
	inst        string
}

// New builds a network around the switch.
func New(cfg Config, sw SwitchModel) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		cfg:     cfg,
		eng:     sim.NewEngine(),
		sw:      sw,
		tracker: coflow.NewTracker(),
		hosts:   make([]host, cfg.Hosts),
	}
	for i := range n.hosts {
		n.hosts[i].ID, n.hosts[i].n = i, n
	}
	if cfg.ServiceRatePPS > 0 {
		n.counter, _ = sw.(TraversalCounter)
		n.perTraversal = sim.Time(1e12 / cfg.ServiceRatePPS)
	}
	if cfg.Faults != nil {
		n.inj = faults.NewInjector(cfg.Faults)
	}
	n.rec = cfg.Recovery
	if cfg.Standby != nil {
		opt := ha.DefaultOptions()
		if cfg.HA != nil {
			opt = *cfg.HA
		}
		pair, err := ha.NewPair(n.eng, sw, cfg.Standby, opt)
		if err != nil {
			return nil, err
		}
		n.pair = pair
	}
	if cfg.Faults != nil && cfg.Faults.SwitchCrashAt > 0 {
		n.eng.Post(cfg.Faults.SwitchCrashAt, func() {
			if n.pair != nil {
				n.pair.Crash()
			} else {
				n.swCrashed = true
			}
		})
	}
	if cfg.Telemetry.Enabled() {
		n.instrument(cfg.Telemetry)
	}
	// The wall-clock perf plane meters every engine's dispatch loop,
	// independent of the sim-time telemetry hub: throughput must be
	// measurable on runs with every deterministic export turned off.
	perf.Attach(n.eng)
	return n, nil
}

// instrument wires the network (and, via Instrumentable, its switch) to
// tel, the configured hub.
func (n *Network) instrument(tel *telemetry.Telemetry) {
	reg, rec := tel.Reg(), tel.Rec()
	n.recorder = rec
	inst := "0"
	if reg != nil {
		inst = reg.InstanceLabel("net").Value
		ls := []telemetry.Label{telemetry.L("net", inst)}
		reg.ObserveFunc("net.injected_pkts", func() float64 { return float64(n.injected) }, ls...)
		reg.ObserveFunc("net.delivered_pkts", func() float64 { return float64(n.delivered) }, ls...)
		reg.ObserveFunc("net.errors", func() float64 { return float64(len(n.errs)) }, ls...)
		reg.ObserveFunc("net.engine.fired_events", func() float64 { return float64(n.eng.Fired()) }, ls...)
		if n.counter != nil {
			reg.ObserveFunc("net.switch.waiting_pkts", func() float64 { return float64(n.waiting) }, ls...)
		}
		pending := reg.Gauge("net.engine.pending_events", ls...)
		n.eng.AddDispatchHook(func(at sim.Time, p int, fired uint64) { pending.Set(int64(p)) })
		n.e2eLat = make([]*telemetry.Histogram, n.cfg.Hosts)
		pl := []telemetry.Label{telemetry.L("net", inst), telemetry.L("port", "")}
		for i := range n.e2eLat {
			pl[1].Value = strconv.Itoa(i)
			n.e2eLat[i] = reg.Histogram("net.e2e_latency_ps", pl...)
		}
		n.instrumentFaults(reg, inst)
	}
	// The sampler hook runs after the gauge hook above, so each sample
	// reads an up-to-date queue depth.
	if sp := tel.Samp(); sp != nil {
		sp.Attach(n.eng)
	}
	if rec.Exporting() {
		proc := rec.Process("net/" + inst)
		n.detail = tel.Detail
		n.txTrack, n.swTrack, n.rxTrack = proc.Thread("tx"), proc.Thread("switch"), proc.Thread("rx")
		n.spans = proc.SpanThread("spans")
		n.coflowSpans = make(map[uint32]telemetry.SpanID)
	}
	// Critical-path chains are accounted whenever a consumer is attached:
	// the registry consumes them as cct.attr.* series, an exporting
	// recorder as "span" category events, and either alone justifies the
	// bookkeeping. A hub whose recorder only keeps its flight ring skips
	// them (the ring wants cheap event stamps, not per-packet accounting).
	if reg != nil || rec.Exporting() {
		n.attr = telemetry.NewCritPath()
	}
	n.reg, n.inst = reg, inst
	n.tracker.OnComplete = func(id uint32, s *coflow.Status) {
		n.spans.Span(s.FirstSend, s.CCT(), "coflow", n.coflowSpan(id), 0, id)
		n.recorder.Record(n.eng.Now(), "coflow.done", int64(id), int64(s.CCT()))
	}
	if sw, ok := n.sw.(Instrumentable); ok {
		sw.Instrument(tel, n.eng.Now)
	}
	if n.pair != nil {
		if reg != nil {
			n.instrumentHA(reg, inst)
		}
		if sb, ok := n.cfg.Standby.(Instrumentable); ok {
			sb.Instrument(tel, n.eng.Now)
		}
	}
}

// newChain opens the causal account of one packet of coflow cf at time
// at, or returns nil when chain accounting is off (no telemetry hub at
// construction), keeping the uninstrumented hot path allocation-free.
func (n *Network) newChain(cf uint32, at sim.Time) *telemetry.Chain {
	if n.attr == nil {
		return nil
	}
	var parent telemetry.SpanID
	if n.spans != nil {
		parent = n.coflowSpan(cf)
	}
	return cut(&n.chains, &n.chainN, minChainSlab, maxChainSlab).Open(at, cf, n.spans, parent)
}

// fork is ch.Fork into the chain slab (nil when accounting is off).
// Accounts are never recycled: CritPath keeps the winning one.
func (n *Network) fork(ch *telemetry.Chain) *telemetry.Chain {
	if ch == nil {
		return nil
	}
	return ch.ForkTo(cut(&n.chains, &n.chainN, minChainSlab, maxChainSlab))
}

// coflowSpan returns (allocating on first use) the coflow's root span id;
// 0 when span tracing is off.
func (n *Network) coflowSpan(cf uint32) telemetry.SpanID {
	if n.spans == nil {
		return 0
	}
	id, ok := n.coflowSpans[cf]
	if !ok {
		id = n.spans.NewSpan()
		n.coflowSpans[cf] = id
	}
	return id
}

// Attribution returns coflow cf's critical-path CCT decomposition: the
// bucket durations of the chain whose delivery set the coflow's
// completion time, plus the source residual, summing exactly to the
// tracker's CCT. ok is false when chain accounting is off or the coflow
// has no delivery.
func (n *Network) Attribution(cf uint32) (telemetry.Breakdown, bool) {
	if n.attr == nil {
		return telemetry.Breakdown{}, false
	}
	fs := sim.Time(0)
	if s := n.tracker.Status(cf); s != nil {
		fs = s.FirstSend
	}
	return n.attr.Attribution(cf, fs)
}

// publishAttribution exports every completed coflow's attribution as
// cct.attr.* registry series. Called once the run is quiescent.
func (n *Network) publishAttribution() {
	if n.attr == nil || n.reg == nil {
		return
	}
	n.attr.Publish(n.reg, []telemetry.Label{telemetry.L("net", n.inst)},
		func(cf uint32) (sim.Time, bool) {
			s := n.tracker.Status(cf)
			if s == nil {
				return 0, false
			}
			return s.FirstSend, true
		})
}

// Engine exposes the event engine (for scheduling application logic).
func (n *Network) Engine() *sim.Engine { return n.eng }

// Tracker exposes the coflow tracker.
func (n *Network) Tracker() *coflow.Tracker { return n.tracker }

// Host returns host i.
func (n *Network) Host(i int) *Host { return &n.hosts[i].Host }

// linkGbps returns the link speed of a host.
func (n *Network) linkGbps(host int) float64 {
	if n.cfg.PerHostGbps != nil && host < len(n.cfg.PerHostGbps) && n.cfg.PerHostGbps[host] > 0 {
		return n.cfg.PerHostGbps[host]
	}
	return n.cfg.LinkGbps
}

// serialization returns the wire time of a packet on a host's link.
func (n *Network) serialization(host int, p *packet.Packet) sim.Time {
	bits := float64(p.WireLen() * 8)
	return sim.Time(bits / n.linkGbps(host) * 1000) // Gbps → ps per bit: 1000/Gbps
}

// pktEvent is one packet's pending step: the state an event needs when it
// fires, in a recycled record instead of a fresh closure per event. The
// record is the event's sim.Handler (and, for an arrival a replicated switch
// withholds, the pair's ha.Committer), so posting a step allocates nothing,
// and an arrival that has to wait for a busy switch queues its own record. A
// record returns to the network's free list once its event has run (an
// arrival's as soon as the switch admits it).
//
// Records are the network's own and never leave it, which is what makes
// recycling them safe. Packets are the opposite: once one has been handed
// to the switch model, a host, OnDeliver or a caller, netsim neither writes
// nor reuses it.
type pktEvent struct {
	n    *Network
	next *pktEvent // free list, or the switch's wait queue

	pkt    *packet.Packet
	ts     *txState         // sender's retransmission state (nil without recovery; set by hold)
	rs     *rxState         // evRedeliver
	ch     *telemetry.Chain // causal account, advanced when the event fires
	sentAt sim.Time         // transmission start, for the latency histogram
	host   int              // source (evSend) or destination (evDeliver) host
	cf     uint32           // coflow id, decoded once where the packet entered (startSend) or left the switch
	kind   evKind
	bucket telemetry.Bucket // evArrive: what the wait before firing is charged to
}

type evKind uint8

const (
	evSend      evKind = iota // host starts a send posted out of order (see postSend)
	evArrive                  // packet reaches the switch, or returns to it after a stall
	evDeliver                 // packet reaches its destination host
	evCorrupt                 // corrupted frame reaches the switch port
	evResend                  // sender retransmits its pristine copy
	evAck                     // switch's acknowledgement reaches the sender
	evRedeliver               // egress port retries a failed delivery
	evCommit                  // replicated switch releases an arrival's ack and outputs
	evWake                    // the switch frees with arrivals waiting (see admitWaiters)
)

// Record slabs start small and double (packet.NextChunk), like the engine's
// event chunks and for the same reason: the pool grows to the packets in
// flight at once, which is a handful on a small network and the whole round
// on a saturated one. A host's send chunks double its queue likewise: a new
// one is as large as what the host has queued, within these bounds (12 KiB).
const (
	minEventSlab, maxEventSlab = 16, 256
	minSendChunk, maxSendChunk = 8, 512
	minChainSlab, maxChainSlab = 8, 64 // × 112 B = 7 KiB
)

// event returns a blank record of the given kind.
func (n *Network) event(kind evKind) *pktEvent {
	if n.freeEv == nil {
		n.evSlab = packet.NextChunk(n.evSlab, minEventSlab, maxEventSlab)
		slab := make([]pktEvent, n.evSlab)
		for i := range slab {
			slab[i].n, slab[i].next = n, n.freeEv
			n.freeEv = &slab[i]
		}
	}
	e := n.freeEv
	n.freeEv, e.next = e.next, nil
	e.kind = kind
	return e
}

// hold points the record at ts (nil: none) until it is recycled.
func (e *pktEvent) hold(ts *txState) {
	if ts != nil {
		ts.refs++
		e.ts = ts
	}
}

// recycle clears the record's references and returns it to the free list.
func (n *Network) recycle(e *pktEvent) {
	if e.ts != nil {
		e.ts.refs--
	}
	*e = pktEvent{n: n, next: n.freeEv}
	n.freeEv = e
}

// Fire runs the record's step (sim.Handler).
func (e *pktEvent) Fire() {
	n := e.n
	switch e.kind {
	case evSend:
		n.startSend(e.host, e.pkt)
	case evArrive:
		e.ch.Advance(n.eng.Now(), e.bucket)
		n.arriveAtSwitch(e, false)
		return // the record is the arrival: admission recycles it
	case evDeliver:
		e.ch.Advance(n.eng.Now(), telemetry.BucketPropagation)
		n.deliver(e.host, e.pkt, e.cf, e.sentAt, e.ch)
	case evCorrupt:
		n.corruptArrival(e.pkt, e.cf)
	case evResend:
		// A packet acked or abandoned meanwhile is not resent, and not
		// booked: TxAttempts = Injected + UplinkRetx holds exactly.
		if ts := e.ts; !ts.acked && !ts.aborted {
			n.transmit(ts.src, n.arena.Share(&ts.pristine), ts.cf, ts, ts.chain, true)
		}
	case evAck:
		if !e.ts.acked && !e.ts.aborted {
			n.retire(e.ts)
		}
		e.ts.acked = true
		n.eng.Disarm(&e.ts.timer)
	case evRedeliver:
		rs := e.rs
		n.attemptDeliver(rs.dst, rs.pkt, rs.cf, n.eng.Now(), rs.sentAt, rs, rs.chain)
	case evWake:
		n.admitWaiters()
	}
	n.recycle(e)
}

// Commit is an arrival's output commit (ha.Committer): its delta is on the
// sync channel, so the ack and the withheld outputs may go.
func (e *pktEvent) Commit(outs []*packet.Packet) {
	n := e.n
	if e.ts != nil {
		n.sendAck(e.ts)
	}
	n.scheduleOutputs(outs, e.sentAt, e.ch)
	n.recycle(e)
}

// Discard is an arrival whose delta died unshipped with the primary
// (ha.Committer): nothing is acked or sent, and the sender retransmits.
func (e *pktEvent) Discard() { e.n.recycle(e) }

// SendAt schedules host src to transmit pkt at time at (or when its uplink
// frees, whichever is later). The packet's IngressPort is stamped with the
// host's port.
func (n *Network) SendAt(src int, pkt *packet.Packet, at sim.Time) {
	if src < 0 || src >= n.cfg.Hosts {
		panic(fmt.Sprintf("netsim: host %d out of range", src))
	}
	pkt.IngressPort = src
	n.postSend(src, pkt, at)
}

// SendEvery schedules host src to send count packets, packet i at
// start+i*gap: it is SendAt(src, build(i), start+i*gap) for each i in
// order, with the same effects, every send drawing its engine ticket here as
// the loop would. Send 0 goes through SendAt, and the others are one entry
// in the host's queue: packet i is built when the send ahead of it starts.
// build must therefore not depend on anything the run changes. A run that
// the queue would not take in order (gap < 0, or a start earlier than the
// host's newest pending send) is that loop.
func (n *Network) SendEvery(src, count int, start, gap sim.Time, build func(i int) *packet.Packet) {
	if count <= 0 {
		return
	}
	n.SendAt(src, build(0), start)
	q := &n.hosts[src]
	if n.armEach || gap < 0 || q.lastAt > start || count == 1 {
		for i := 1; i < count; i++ {
			n.SendAt(src, build(i), start+sim.Time(i)*gap)
		}
		return
	}
	c := n.appendChunk(q)
	c.r, c.run = 1, cut(&n.runSlab, &n.runN, minSendChunk, minSendChunk)
	// Send 0 drew the ticket just before this one.
	*c.run = sendRun{build: build, start: start, gap: gap, seq: n.eng.Reserve() - 1, count: count}
	for range count - 2 {
		n.eng.Reserve()
	}
	q.lastAt = start + sim.Time(count-1)*gap
}

// pendingSend is a send that has not started: where it fires is (at, seq),
// seq being the engine ticket reserved when the send was posted.
type pendingSend struct {
	at  sim.Time
	seq uint64
	pkt *packet.Packet
}

// sendChunk is a run of consecutive entries of one host's queue: listed
// sends, or (run set, items empty) a SendEvery run whose sends r and later
// are still queued.
type sendChunk struct {
	next  *sendChunk // the host's next chunk, or the free list
	r     int        // items[r:], or the run's sends r and later, are still queued
	items []pendingSend
	run   *sendRun
}

// sendRun is a SendEvery run: send i fires at (start+i*gap, seq+i) with
// packet build(i).
type sendRun struct {
	build      func(int) *packet.Packet
	start, gap sim.Time
	seq        uint64
	count      int
}

// host is what the network keeps per host: the public record and the sends
// that have not started. A harness posts a whole round before it runs, so
// most of a round's sends are waiting for most of the run: one that waits is
// an entry in its host's FIFO, not an event in the engine, and a SendEvery
// run is one entry whose packets are built as they come up. Only the host's
// next send is in the engine, as timer, which on firing re-arms itself for
// the send behind it under that send's ticket — so every send fires exactly
// where an event posted from SendAt would have, and the engine holds one
// event per host plus the packets in flight.
type host struct {
	Host
	txBusyUntil, rxBusyUntil sim.Time // serialize the host's uplink and downlink

	n          *Network
	timer      sim.Timer
	pkt        *packet.Packet // what timer sends; nil when the host has nothing pending
	lastAt     sim.Time       // time of the host's newest pending send
	head, tail *sendChunk     // the sends behind pkt, oldest first
	queued     int            // how many of those are listed (not a run's)
}

// postSend queues host src's send of pkt at time at. Each path draws one
// sequence number, here: a host with nothing pending arms its timer, a send
// no earlier than the host's newest joins the queue under a ticket, and one
// that is earlier (a callback's, or a crashed host's deferral landing before
// sends posted for after its restart) is an event of its own.
func (n *Network) postSend(src int, pkt *packet.Packet, at sim.Time) {
	q := &n.hosts[src]
	switch {
	case n.armEach || q.pkt != nil && at < q.lastAt:
		e := n.event(evSend)
		e.host, e.pkt = src, pkt
		n.eng.PostHandler(at, e)
		return
	case q.pkt == nil:
		q.pkt = pkt
		n.eng.Arm(&q.timer, at, q)
	default:
		c := q.tail
		if c == nil || c.run != nil || len(c.items) == cap(c.items) {
			c = n.appendChunk(q)
			if cap(c.items) == 0 {
				c.items = make([]pendingSend, 0, min(max(q.queued, minSendChunk), maxSendChunk))
			}
		}
		c.items = append(c.items, pendingSend{at, n.eng.Reserve(), pkt})
		q.queued++
	}
	q.lastAt = at
}

// appendChunk links an empty chunk, recycled or new, behind the host's
// queue.
func (n *Network) appendChunk(q *host) *sendChunk {
	c := n.freeChunks
	if c != nil {
		n.freeChunks, c.next = c.next, nil
	} else {
		c = cut(&n.chunkSlab, &n.chunkN, minSendChunk, minSendChunk)
	}
	if q.tail == nil {
		q.head = c
	} else {
		q.tail.next = c
	}
	q.tail = c
	return c
}

// Fire starts the host's next send (sim.Handler), having armed the timer for
// the one behind it first: startSend may post a deferral, which has to find
// the queue as it will be.
func (q *host) Fire() {
	n, pkt := q.n, q.pkt
	q.pkt = nil
	if c := q.head; c != nil {
		var at sim.Time
		var seq uint64
		var last bool
		if g := c.run; g != nil {
			at, seq, q.pkt = g.start+sim.Time(c.r)*g.gap, g.seq+uint64(c.r), g.build(c.r)
			q.pkt.IngressPort = q.ID
			if last = c.r+1 == g.count; last {
				*g = sendRun{} // lets the builder go
			}
		} else {
			s := &c.items[c.r]
			at, seq, q.pkt = s.at, s.seq, s.pkt
			*s = pendingSend{}
			last = c.r+1 == len(c.items)
			q.queued--
		}
		n.eng.ArmReserved(&q.timer, at, seq, q)
		if c.r++; last {
			if q.head = c.next; q.head == nil {
				q.tail = nil
			}
			c.next, c.r, c.items, c.run = n.freeChunks, 0, c.items[:0], nil
			n.freeChunks = c
		}
	}
	n.startSend(q.ID, pkt)
}

// startSend is a packet's entry into the network: a crashed (or cut-off)
// host defers the send to its restart, an up host records the send with the
// tracker and makes the first transmission attempt.
func (n *Network) startSend(src int, pkt *packet.Packet) {
	now := n.eng.Now()
	if n.inj != nil {
		if up := n.inj.ResumeAt(src, now); up > now {
			n.led.SendDeferrals++
			n.postSend(src, pkt, up)
			return
		}
	}
	cf := packet.CoflowKey(pkt.Data)
	n.tracker.Send(cf, now, pkt.WireLen())
	n.injected++
	n.recorder.Record(now, "send", int64(cf), int64(src))
	ch := n.newChain(cf, now)
	var ts *txState
	if n.rec != nil {
		ts = n.newTxState()
		*ts = txState{n: n, src: src, cf: cf, uid: n.txSeq, pristine: *pkt, rto: n.rec.Timeout, chain: ch}
		n.txSeq++
	}
	n.transmit(src, pkt, cf, ts, ch, false)
}

// arriveAtSwitch runs the switch synchronously and schedules deliveries.
// With a service rate configured the switch is a single-server FIFO queue:
// each traversal (recirculated passes included) occupies it, and an arrival
// that finds it busy — or finds anyone already waiting, so a tie at the
// instant the switch frees cannot jump the line — links its record onto the
// wait queue, to come back through here with queued set when admitWaiters
// reaches it. e.sentAt is the packet's transmission start, threaded through
// to delivery so the end-to-end latency histogram sees the full path. e.ts is
// the sender's retransmission state (nil without recovery): the first copy
// to arrive is acknowledged, later copies are suppressed here, before the
// switch program, so stateful switch programs never see duplicates.
func (n *Network) arriveAtSwitch(e *pktEvent, queued bool) {
	if n.inj != nil {
		if end, stalled := n.inj.StallEnd(n.eng.Now()); stalled {
			// Switch stall window: the arrival is held (input buffering)
			// and replayed when the switch resumes.
			n.led.StallDeferrals++
			n.recorder.Record(n.eng.Now(), "stall.defer", int64(e.cf), int64(end))
			e.bucket = telemetry.BucketFailoverStall
			n.eng.PostHandler(end, e)
			return
		}
	}
	// A replicated switch never waits here: Validate rejects a standby
	// together with a service rate, so counter is nil whenever pair is set.
	// A dead switch drops at the port, queue or no queue.
	if n.counter != nil && !queued && !n.swCrashed && (n.waitHead != nil || n.swBusyUntil > n.eng.Now()) {
		if n.waitHead == nil {
			n.waitHead = e
			n.eng.PostHandler(n.swBusyUntil, n.event(evWake))
		} else {
			n.waitTail.next = e
		}
		n.waitTail = e
		n.waiting++
		return
	}
	pkt, cf, sentAt, ts, ch := e.pkt, e.cf, e.sentAt, e.ts, e.ch
	n.recycle(e)
	n.led.SwitchArrivals++
	if n.pair != nil {
		n.haArrival(pkt, cf, ts, ch)
		return
	}
	if n.swCrashed {
		n.crashDrop(pkt, cf, ts)
		return
	}
	if ts != nil {
		if ts.arrived {
			// A retransmitted copy of a packet the switch already
			// processed (its ack was lost or late): re-ack so the sender
			// stops.
			n.suppress(ts, true)
			return
		}
		ts.arrived = true
		n.sendAck(ts)
		// End-to-end latency spans from the first transmission attempt.
		sentAt = ts.firstSent
		// Detach the switch-side account from the sender's: a spurious
		// retransmission (lost ack) keeps advancing ts.chain, which must
		// not disturb the accepted copy's history.
		ch = n.fork(ch)
	}
	n.recorder.Record(n.eng.Now(), "switch.arrive", int64(cf), int64(pkt.IngressPort))
	var before uint64
	if n.counter != nil {
		before = n.counter.IngressTraversals()
	}
	outs, err := n.sw.Process(pkt)
	if err != nil {
		n.switchError(cf, err)
		return
	}
	n.led.SwitchProcessed++
	if n.detail {
		n.swTrack.Instant(n.eng.Now(), "switch.process", "net",
			map[string]any{"ingress_port": pkt.IngressPort, "outs": len(outs)})
	}
	if n.counter != nil {
		delta := n.counter.IngressTraversals() - before
		if delta == 0 {
			delta = 1
		}
		n.swBusyUntil = n.eng.Now() + sim.Time(delta)*n.perTraversal
	}
	n.scheduleOutputs(outs, sentAt, ch)
}

// admitWaiters is the wake-up event, the only one pending however many
// packets wait: it fires when the switch frees, charges the head's whole
// wait to queueing and admits it, keeps going while the switch stays free (a
// suppressed duplicate, a crash drop or a stall deferral does not occupy
// it), and re-arms itself for the new swBusyUntil if waiters remain.
func (n *Network) admitWaiters() {
	now := n.eng.Now()
	for n.waitHead != nil && n.swBusyUntil <= now {
		e := n.waitHead
		n.waitHead, e.next = e.next, nil
		n.waiting--
		e.ch.Advance(now, telemetry.BucketQueueing)
		n.arriveAtSwitch(e, true)
	}
	if n.waitHead != nil {
		n.eng.PostHandler(n.swBusyUntil, n.event(evWake))
	}
}

// scheduleOutputs books the switch's output packets and schedules their
// downlink deliveries. sentAt is the originating packet's transmission
// start (for the end-to-end latency histogram). In HA mode this runs as
// the deferred commit of an arrival, at its delta's ship time — the
// opening chain advance then charges the output-commit deferral to
// queueing. Each output past the first forks the account so multicast
// branches carry independent cursors.
func (n *Network) scheduleOutputs(outs []*packet.Packet, sentAt sim.Time, ch *telemetry.Chain) {
	n.led.SwitchOutputs += uint64(len(outs))
	now := n.eng.Now()
	ch.Advance(now, telemetry.BucketQueueing)
	for i, out := range outs {
		// Each recirculated pass adds a full pipeline transit.
		base := now + n.cfg.SwitchLatency*sim.Time(1+out.Recirculations)
		dst := out.EgressPort
		if dst < 0 || dst >= n.cfg.Hosts {
			// Delivered on a port with no host attached: account it as a
			// drop (and an error for tests) instead of vanishing.
			n.errs = append(n.errs, fmt.Errorf("netsim: delivery on hostless port %d", dst))
			n.led.HostlessDrops++
			n.tracker.Drop(packet.CoflowKey(out.Data))
			continue
		}
		cf := packet.CoflowKey(out.Data)
		c := ch
		if i < len(outs)-1 {
			c = n.fork(ch) // the last output continues on the parent account
		}
		c.Advance(now+n.cfg.SwitchLatency, telemetry.BucketPipeline)
		c.Advance(base, telemetry.BucketRecirculation)
		n.attemptDeliver(dst, out, cf, base, sentAt, nil, c)
	}
}

// crashDrop books an arrival that found the switch dead: the frame dies at
// the port. With recovery the sender's timer is still running, so it keeps
// retransmitting (reaching the standby once promoted, or aborting on
// budget); without recovery the packet drops terminally.
func (n *Network) crashDrop(pkt *packet.Packet, cf uint32, ts *txState) {
	n.led.CrashDrops++
	n.tracker.Lose(cf)
	n.recorder.Record(n.eng.Now(), "crash.drop", int64(cf), int64(pkt.IngressPort))
	if ts == nil {
		n.tracker.Drop(cf)
	}
}

// haArrival is arriveAtSwitch's replicated-switch path: duplicates are
// suppressed against the active replica's seen set (which survives
// failover, unlike per-attempt sender state), and the packet is submitted
// through the pair, which withholds the ack and the outputs until the
// packet's state delta is safely on the sync channel (output commit). A
// crash before the ship point therefore acks nothing: the sender times
// out and retransmits to the promoted standby, which applies the packet
// exactly once. A standby requires recovery, so ts is never nil here.
func (n *Network) haArrival(pkt *packet.Packet, cf uint32, ts *txState, ch *telemetry.Chain) {
	if !n.pair.Alive() {
		n.crashDrop(pkt, cf, ts)
		return
	}
	if n.pair.Seen(ts.uid) {
		// The active replica already applied this packet. Re-ack only if
		// its delta shipped — the ack of an uncommitted packet is exactly
		// what output commit withholds.
		n.suppress(ts, n.pair.Committed(ts.uid))
		return
	}
	n.recorder.Record(n.eng.Now(), "switch.arrive", int64(cf), int64(pkt.IngressPort))
	// Detach the committed account from the sender's (see arriveAtSwitch);
	// the commit runs at the delta's ship time, possibly after spurious
	// retransmissions have advanced ts.chain.
	commit := n.event(evCommit)
	commit.sentAt, commit.ch = ts.firstSent, n.fork(ch)
	commit.hold(ts)
	if err := n.pair.Submit(ts.uid, pkt, commit); err != nil {
		n.recycle(commit)
		// Deterministic processing error: the standby's replay reproduces
		// it, so the packet is booked (and acked, stopping retransmission)
		// exactly as on an unreplicated switch.
		n.sendAck(ts)
		n.switchError(cf, err)
		return
	}
	n.led.SwitchProcessed++
	if n.detail {
		n.swTrack.Instant(n.eng.Now(), "switch.process", "net",
			map[string]any{"ingress_port": pkt.IngressPort})
	}
}

// suppress books a retransmitted copy of a packet the switch already
// applied, re-acking it if ack is set.
func (n *Network) suppress(ts *txState, ack bool) {
	n.led.DupSuppressed++
	n.tracker.Duplicate(ts.cf)
	n.recorder.Record(n.eng.Now(), "dup.suppress", int64(ts.cf), int64(ts.uid))
	if ack {
		n.sendAck(ts)
	}
}

// switchError books a packet the switch refused: it is terminally gone, so
// it leaves the books as a drop instead of vanishing.
func (n *Network) switchError(cf uint32, err error) {
	n.errs = append(n.errs, err)
	n.led.SwitchErrors++
	n.tracker.Drop(cf)
	n.recorder.Record(n.eng.Now(), "switch.error", int64(cf), 0)
	if n.swTrack != nil {
		n.swTrack.Instant(n.eng.Now(), "switch.error", "net", map[string]any{"error": err.Error()})
	}
}

func (n *Network) deliver(dst int, p *packet.Packet, cf uint32, sentAt sim.Time, ch *telemetry.Chain) {
	h := &n.hosts[dst]
	if len(h.Received) == cap(h.Received) { // doubled: append grows by a quarter past 256
		h.Received = append(make([]*packet.Packet, 0, max(2*cap(h.Received), 8)), h.Received...)
	}
	h.Received = append(h.Received, p)
	h.RxBytes += uint64(p.WireLen())
	n.delivered++
	if n.e2eLat != nil {
		n.e2eLat[dst].Observe(float64(n.eng.Now() - sentAt))
	}
	// The critical-path collector applies the same strictly-later rule as
	// the tracker, so the chain it keeps is the one that set LastDeliver.
	n.attr.Deliver(cf, n.eng.Now(), ch)
	n.tracker.Deliver(cf, n.eng.Now(), p.WireLen())
	n.recorder.Record(n.eng.Now(), "deliver", int64(cf), int64(dst))
	if n.rxTrack != nil {
		n.rxTrack.Instant(n.eng.Now(), "deliver", "net",
			map[string]any{"host": dst, "coflow": cf})
	}
	if n.OnDeliver != nil {
		n.OnDeliver(dst, p, n.eng.Now())
	}
}

// Run drains the event queue, then — if the queue actually emptied (no
// budget stop) — asserts packet conservation and the tracker invariants,
// appending any violation to the error list every harness already checks.
// A violation from these run-level checks (budget exhaustion included)
// dumps the flight-recorder ring to stderr, so the failure arrives with
// the last events the simulation executed. Finally the critical-path
// attribution of every completed coflow is published to the registry.
func (n *Network) Run() {
	n.eng.Run()
	pre := len(n.errs)
	if n.eng.BudgetExceeded() {
		n.errs = append(n.errs, fmt.Errorf("netsim: %w after %d events at %v",
			sim.ErrEventBudget, n.eng.Fired(), n.eng.Now()))
	}
	if n.eng.Pending() == 0 {
		if err := n.CheckConservation(); err != nil {
			n.errs = append(n.errs, err)
		}
		if err := n.tracker.CheckInvariants(); err != nil {
			n.errs = append(n.errs, err)
		}
	}
	if len(n.errs) > pre && n.recorder != nil {
		sink := n.FlightSink
		if sink == nil {
			sink = os.Stderr
		}
		n.recorder.Dump(sink, n.errs[len(n.errs)-1].Error())
	}
	n.publishAttribution()
}

// Injected returns packets sent by hosts.
func (n *Network) Injected() uint64 { return n.injected }

// Delivered returns packets received by hosts.
func (n *Network) Delivered() uint64 { return n.delivered }

// Errors returns switch/delivery errors accumulated during the run.
func (n *Network) Errors() []error { return n.errs }

// Now returns the current simulated time.
func (n *Network) Now() sim.Time { return n.eng.Now() }

// HA exposes the replication pair (nil without a standby configured).
func (n *Network) HA() *ha.Pair { return n.pair }
