// Reliability: the fault-consultation and end-host recovery half of netsim.
//
// Every transmission attempt (uplink host→switch, downlink switch→host) asks
// the fault injector for an outcome. Without recovery configured, a faulted
// attempt terminally drops the packet (with tracker + ledger accounting).
// With recovery, the sending side keeps per-packet state and retransmits on
// timeout with exponential backoff under a bounded retry budget:
//
//   - uplink: the host keeps a struct of its own over the packet's bytes
//     (see packet.Arena), arms an ack timer per attempt, and resends a
//     fresh struct over them until an ack arrives or the budget is
//     exhausted. Acks travel the reverse path and can themselves be lost,
//     producing spurious retransmissions whose duplicates the switch
//     boundary suppresses (stateful switch programs must never see the
//     same packet twice).
//   - downlink: the switch egress port knows exactly which delivery attempts
//     failed (the simulator is the wire), so it redelivers those without an
//     ack protocol; no host-side dedup is needed.
//
// All accounting flows into Ledger, whose CheckConservation proves the exact
// identities "every attempt is delivered, faulted, suppressed, or dropped"
// once the event queue drains.
package netsim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/ha"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Ledger is the network's exact packet ledger. Counters only ever
// increment; CheckConservation audits the identities below once the run is
// quiescent. All fields are attempt-granular: one packet retransmitted
// twice contributes three attempts.
type Ledger struct {
	// TxAttempts counts uplink wire attempts; SwitchArrivals the subset
	// arriving intact (corrupt arrivals fail CRC at the port and are not
	// counted). SwitchProcessed/SwitchErrors/DupSuppressed partition the
	// arrivals; SwitchOutputs counts packets the switch emitted.
	TxAttempts      uint64
	SwitchArrivals  uint64
	SwitchProcessed uint64
	SwitchErrors    uint64
	DupSuppressed   uint64
	SwitchOutputs   uint64
	HostlessDrops   uint64
	// CrashDrops counts arrivals that found the switch dead: after a
	// fault-plan crash with no serving replica (either no standby, or the
	// window between crash and standby promotion).
	CrashDrops uint64
	// RxAttempts counts downlink wire attempts toward hosts.
	RxAttempts uint64

	// Uplink fault outcomes, by cause.
	TxLost, TxCorrupt, TxLinkDown, TxHostDown uint64
	// Downlink fault outcomes, by cause.
	RxLost, RxCorrupt, RxLinkDown, RxHostDown uint64

	// UplinkRetx / DownlinkRetx count retransmission attempts actually
	// made; TxAborted / RxAborted count packets abandoned after the retry
	// budget ran out.
	UplinkRetx, DownlinkRetx uint64
	TxAborted, RxAborted     uint64

	// AcksLost counts acknowledgements destroyed on the reverse path;
	// StallDeferrals arrivals held across a switch stall window;
	// SendDeferrals sends deferred because the source host was down.
	AcksLost       uint64
	StallDeferrals uint64
	SendDeferrals  uint64
}

// txState is the sender-side retransmission state of one original packet.
// It is its own ack timer's handler: the timer is embedded, so arming it
// per attempt allocates nothing.
type txState struct {
	n        *Network
	src      int
	cf       uint32
	refs     int32         // event records pointing at the state (pktEvent.hold)
	uid      uint64        // network-wide unique packet id (HA dup suppression)
	pristine packet.Packet // the sender's own struct over the bytes it built
	rto      sim.Time
	retx     int
	timer    sim.Timer
	next     *txState // link in a retired FIFO (newTxState)
	// firstSent is the wire start of the first attempt (end-to-end latency
	// baseline); arrived flips when a copy reaches the switch intact;
	// acked stops the retransmission loop; aborted marks budget exhaustion.
	firstSent sim.Time
	arrived   bool
	acked     bool
	aborted   bool
	// chain is the packet's causal account (nil when attribution is off).
	chain *telemetry.Chain
}

// rxState is the egress-side redelivery state of one switch output.
type rxState struct {
	dst    int
	cf     uint32
	pkt    *packet.Packet
	sentAt sim.Time
	rto    sim.Time
	retx   int
	chain  *telemetry.Chain // causal account (nil when attribution is off)
}

// Fire is the ack timer running out (sim.Handler): the attempt's ack did
// not arrive in time.
func (ts *txState) Fire() {
	if ts.acked || ts.aborted {
		return
	}
	ts.n.resendOrAbort(ts, ts.n.eng.Now())
}

// stateSlab is how many recovery states one chunk holds. A sender's state
// is reused once its packet was acked or abandoned and nothing points at it
// any more (newTxState); a redelivery state never is, so a chunk of those
// lives until the last of its packets is forgotten, like an arena's.
const stateSlab = 64

// newTxState returns the state of a send about to start: the oldest retired
// one that no record points at and whose timer is Idle, else a fresh one.
// Retired states queue in two FIFOs by whether their packet was ever
// retransmitted: such a packet's disarmed timer stays linked for a backed-off
// timeout and would block the states behind it. startSend runs only as an
// event of its own, so no handler holds a reused state in a local.
func (n *Network) newTxState() *txState {
	for i := range n.retired {
		q := &n.retired[i]
		if ts := q.head; ts != nil && ts.refs == 0 && ts.timer.Idle() {
			if q.head = ts.next; q.head == nil {
				q.tail = nil
			}
			return ts
		}
	}
	n.txCut++
	return cut(&n.txSlab, &n.txN, stateSlab, stateSlab)
}

// retire queues the state of a packet just acked or abandoned for reuse.
func (n *Network) retire(ts *txState) {
	q := &n.retired[min(ts.retx, 1)]
	if q.tail == nil {
		q.head = ts
	} else {
		q.tail.next = ts
	}
	q.tail = ts
}

// cut returns the next unissued element of *slab (packet.Chunk of one).
func cut[T any](slab *[]T, size *int, lo, hi int) *T { return &packet.Chunk(slab, size, 1, lo, hi)[0] }

// transmit makes one uplink wire attempt; retx marks attempts beyond the
// first.
func (n *Network) transmit(src int, pkt *packet.Packet, cf uint32, ts *txState, ch *telemetry.Chain, retx bool) {
	now := n.eng.Now()
	start := now
	if n.hosts[src].txBusyUntil > start {
		start = n.hosts[src].txBusyUntil
	}
	if retx {
		n.led.UplinkRetx++
		n.tracker.Retransmit(ts.cf)
		n.recorder.Record(now, "retx.tx", int64(ts.cf), int64(ts.retx))
		n.chargeRecoveryWait(ch, now)
	} else if ts != nil {
		ts.firstSent = start
	}
	n.led.TxAttempts++
	out := faults.OK
	if n.inj != nil {
		out = n.inj.Attempt(src, start)
	}
	if out == faults.LinkDown || out == faults.HostDown {
		// The wire never energizes: no serialization, no timer — the
		// failure is locally visible, so recovery retries directly
		// (restart-aware).
		n.countFault(true, out, cf)
		if ts != nil {
			n.resendOrAbort(ts, now+ts.rto)
		}
		return
	}
	done := start + n.serialization(src, pkt)
	ch.Advance(start, telemetry.BucketQueueing)
	ch.Advance(done, telemetry.BucketSerialization)
	n.hosts[src].txBusyUntil = done
	arrive := done + n.cfg.PropDelay
	if n.txTrack != nil {
		n.txTrack.Complete(start, done-start, "tx", "net",
			map[string]any{"host": src, "bytes": pkt.WireLen()})
	}
	switch out {
	case faults.OK:
		e := n.event(evArrive)
		e.pkt, e.cf, e.sentAt, e.ch, e.bucket = pkt, cf, start, ch, telemetry.BucketPropagation
		e.hold(ts)
		n.eng.PostHandler(arrive, e)
	case faults.Lost:
		n.countFault(true, out, cf)
	case faults.Corrupt:
		// The frame occupies the wire and reaches the switch port, where
		// the CRC check discards it.
		e := n.event(evCorrupt)
		e.pkt, e.cf = pkt, cf
		n.eng.PostHandler(arrive, e)
	}
	if ts != nil {
		n.eng.Arm(&ts.timer, done+ts.rto, ts)
	}
}

// chargeRecoveryWait attributes a retransmission wait — the chain's gap
// from its last accounted point up to now — splitting out any overlap
// with a switch outage window into the failover-stall bucket. The wait of
// a sender whose packet died (or sat uncommitted) across a crash is
// downtime, not protocol backoff, and the pair's crash/promotion stamps
// bound that window exactly; the remainder is ordinary retx time.
func (n *Network) chargeRecoveryWait(ch *telemetry.Chain, now sim.Time) {
	if ch == nil {
		return
	}
	if lo, hi, ok := n.outageWindow(now); ok && hi > ch.Cursor() && lo < now {
		ch.Advance(lo, telemetry.BucketRetx)
		if hi > now {
			hi = now
		}
		ch.Advance(hi, telemetry.BucketFailoverStall)
	}
	ch.Advance(now, telemetry.BucketRetx)
}

// outageWindow returns the [crash, promotion) interval during which no
// switch replica was serving; hi is `now` while the outage is ongoing
// (crashed with promotion pending, or a standby-less crash — permanent).
func (n *Network) outageWindow(now sim.Time) (lo, hi sim.Time, ok bool) {
	if n.pair != nil {
		st := n.pair.Stats()
		if st.CrashAt == 0 {
			return 0, 0, false
		}
		if st.Promotions == 0 {
			return st.CrashAt, now, true
		}
		return st.CrashAt, st.PromotedAt, true
	}
	if n.swCrashed && n.cfg.Faults != nil {
		return n.cfg.Faults.SwitchCrashAt, now, true
	}
	return 0, 0, false
}

// countFault books one faulted attempt, uplink (tx) or downlink; without
// recovery the packet is terminally dropped.
func (n *Network) countFault(tx bool, out faults.Outcome, cf uint32) {
	l := &n.led
	by := [...]*uint64{faults.Lost: &l.RxLost, faults.Corrupt: &l.RxCorrupt, faults.LinkDown: &l.RxLinkDown, faults.HostDown: &l.RxHostDown}
	if tx {
		by = [...]*uint64{faults.Lost: &l.TxLost, faults.Corrupt: &l.TxCorrupt, faults.LinkDown: &l.TxLinkDown, faults.HostDown: &l.TxHostDown}
	}
	*by[out]++
	n.tracker.Lose(cf)
	if n.rec == nil {
		n.tracker.Drop(cf)
	}
}

// corruptArrival is a corrupted frame reaching the switch port: the CRC
// check discards it there, so it never counts as a switch arrival. The
// sender only learns via its ack timer.
func (n *Network) corruptArrival(pkt *packet.Packet, cf uint32) {
	n.countFault(true, faults.Corrupt, cf)
	if n.detail {
		n.swTrack.Instant(n.eng.Now(), "switch.corrupt_discard", "net",
			map[string]any{"ingress_port": pkt.IngressPort})
	}
}

// resendOrAbort schedules the next uplink attempt at `at` (pushed past any
// crash/down window of the source) with backed-off timeout, or abandons the
// packet once the retry budget is spent.
func (n *Network) resendOrAbort(ts *txState, at sim.Time) {
	if ts.retx >= n.rec.MaxRetries {
		ts.aborted = true
		n.retire(ts)
		n.led.TxAborted++
		n.tracker.Drop(ts.cf)
		return
	}
	ts.retx++
	ts.rto = n.rec.Next(ts.rto)
	when := at
	if n.inj != nil {
		if up := n.inj.ResumeAt(ts.src, when); up > when {
			when = up
		}
	}
	e := n.event(evResend)
	e.hold(ts)
	n.eng.PostHandler(when, e)
}

// sendAck launches the switch's acknowledgement of an intact arrival back
// down the sender's link. The ack is tiny (no serialization modeled) but
// shares the link's fate: it can be lost, which leaves the sender's timer
// running and produces a spurious retransmission.
func (n *Network) sendAck(ts *txState) {
	now := n.eng.Now()
	if n.inj != nil && n.inj.AckLost(ts.src, now) {
		n.led.AcksLost++
		return
	}
	e := n.event(evAck)
	e.hold(ts)
	n.eng.PostHandler(now+n.cfg.PropDelay, e)
}

// attemptDeliver makes one downlink wire attempt toward dst, no earlier
// than `earliest` and respecting the downlink's serialization queue. rs is
// the redelivery state: nil on a first attempt, cut when one faults with
// recovery on (without, the packet drops).
func (n *Network) attemptDeliver(dst int, p *packet.Packet, cf uint32, earliest, sentAt sim.Time, rs *rxState, ch *telemetry.Chain) {
	start := earliest
	if n.hosts[dst].rxBusyUntil > start {
		start = n.hosts[dst].rxBusyUntil
	}
	if rs != nil { // a redelivery
		n.led.DownlinkRetx++
		n.tracker.Retransmit(cf)
		n.recorder.Record(n.eng.Now(), "retx.rx", int64(cf), int64(rs.retx))
		ch.Advance(n.eng.Now(), telemetry.BucketRetx)
	}
	n.led.RxAttempts++
	out := faults.OK
	if n.inj != nil {
		out = n.inj.Attempt(dst, start)
	}
	if out != faults.OK && rs == nil && n.rec != nil {
		rs = cut(&n.rxSlab, &n.rxN, stateSlab, stateSlab)
		*rs = rxState{dst: dst, cf: cf, pkt: p, sentAt: sentAt, rto: n.rec.Timeout, chain: ch}
	}
	if out == faults.LinkDown || out == faults.HostDown {
		// No wire occupancy; redeliver after the link/host comes back.
		n.countFault(false, out, cf)
		n.redeliver(rs, n.eng.Now())
		return
	}
	done := start + n.serialization(dst, p)
	ch.Advance(start, telemetry.BucketQueueing)
	ch.Advance(done, telemetry.BucketSerialization)
	n.hosts[dst].rxBusyUntil = done
	arrive := done + n.cfg.PropDelay
	if n.detail {
		n.rxTrack.Complete(start, done-start, "rx", "net",
			map[string]any{"host": dst, "bytes": p.WireLen()})
	}
	if out != faults.OK { // Lost or Corrupt: the frame occupied the wire but nothing usable arrives
		n.countFault(false, out, cf)
		n.redeliver(rs, done)
		return
	}
	e := n.event(evDeliver)
	e.host, e.pkt, e.cf, e.sentAt, e.ch = dst, p, cf, sentAt, ch
	n.eng.PostHandler(arrive, e)
}

// redeliver schedules the egress port's retransmission of a failed
// delivery attempt after the backed-off timeout (pushed past any down
// window of the destination), or abandons the packet once the budget is
// spent. The egress port observes its own wire, so no ack protocol — and
// therefore no duplicate delivery — is possible on this leg.
func (n *Network) redeliver(rs *rxState, at sim.Time) {
	if rs == nil {
		return
	}
	if rs.retx >= n.rec.MaxRetries {
		n.led.RxAborted++
		n.tracker.Drop(rs.cf)
		return
	}
	rs.retx++
	when := at + rs.rto
	rs.rto = n.rec.Next(rs.rto)
	if n.inj != nil {
		if up := n.inj.ResumeAt(rs.dst, when); up > when {
			when = up
		}
	}
	e := n.event(evRedeliver)
	e.rs = rs
	n.eng.PostHandler(when, e)
}

// Ledger returns a copy of the packet ledger.
func (n *Network) Ledger() Ledger { return n.led }

// CheckConservation audits the exact packet identities of the run. It is
// only meaningful once the event queue has drained (Run asserts it then
// automatically); calling it with events still pending returns an error.
//
// The identities, attempt-granular:
//
//	TxAttempts   = Injected + UplinkRetx
//	TxAttempts   = SwitchArrivals + TxLost + TxCorrupt + TxLinkDown + TxHostDown
//	SwitchArrivals = SwitchProcessed + SwitchErrors + DupSuppressed + CrashDrops
//	SwitchOutputs  = (RxAttempts − DownlinkRetx) + HostlessDrops
//	RxAttempts   = Delivered + RxLost + RxCorrupt + RxLinkDown + RxHostDown
//
// The third identity spans the failover boundary: arrivals processed by the
// promoted standby land in SwitchProcessed, retransmissions of packets the
// dead primary already applied land in DupSuppressed, and arrivals during
// the outage land in CrashDrops — so a double-applied packet shows up as an
// identity violation.
func (n *Network) CheckConservation() error {
	if p := n.eng.Pending(); p != 0 {
		return fmt.Errorf("netsim: conservation checked with %d events pending", p)
	}
	l := &n.led
	if got, want := l.TxAttempts, n.injected+l.UplinkRetx; got != want {
		return fmt.Errorf("netsim: conservation: %d tx attempts != %d injected + %d uplink retx",
			got, n.injected, l.UplinkRetx)
	}
	txFaults := l.TxLost + l.TxCorrupt + l.TxLinkDown + l.TxHostDown
	if got, want := l.TxAttempts, l.SwitchArrivals+txFaults; got != want {
		return fmt.Errorf("netsim: conservation: %d tx attempts != %d switch arrivals + %d tx faults",
			got, l.SwitchArrivals, txFaults)
	}
	if got, want := l.SwitchArrivals, l.SwitchProcessed+l.SwitchErrors+l.DupSuppressed+l.CrashDrops; got != want {
		return fmt.Errorf("netsim: conservation: %d switch arrivals != %d processed + %d errors + %d duplicates + %d crash drops",
			got, l.SwitchProcessed, l.SwitchErrors, l.DupSuppressed, l.CrashDrops)
	}
	if got, want := l.SwitchOutputs, (l.RxAttempts-l.DownlinkRetx)+l.HostlessDrops; got != want {
		return fmt.Errorf("netsim: conservation: %d switch outputs != %d first rx attempts + %d hostless drops",
			got, l.RxAttempts-l.DownlinkRetx, l.HostlessDrops)
	}
	rxFaults := l.RxLost + l.RxCorrupt + l.RxLinkDown + l.RxHostDown
	if got, want := l.RxAttempts, n.delivered+rxFaults; got != want {
		return fmt.Errorf("netsim: conservation: %d rx attempts != %d delivered + %d rx faults",
			got, n.delivered, rxFaults)
	}
	return nil
}

// instrumentFaults registers the fault/recovery counter families plus the
// always-on switch-error and hostless-drop counters. Fault series only
// exist when a plan or recovery is configured, so clean runs export the
// same metric set as before.
func (n *Network) instrumentFaults(reg *telemetry.Registry, inst string) {
	ls := []telemetry.Label{telemetry.L("net", inst)}
	u64 := func(p *uint64) func() float64 {
		return func() float64 { return float64(*p) }
	}
	reg.ObserveFunc("net.switch_errors", u64(&n.led.SwitchErrors), ls...)
	reg.ObserveFunc("net.drops.hostless", u64(&n.led.HostlessDrops), ls...)
	if n.inj == nil && n.rec == nil {
		return
	}
	drop := func(leg string, cause faults.Outcome, p *uint64) {
		reg.ObserveFunc("net.faults.attempts", u64(p),
			telemetry.L("net", inst), telemetry.L("leg", leg), telemetry.L("cause", cause.String()))
	}
	drop("tx", faults.Lost, &n.led.TxLost)
	drop("tx", faults.Corrupt, &n.led.TxCorrupt)
	drop("tx", faults.LinkDown, &n.led.TxLinkDown)
	drop("tx", faults.HostDown, &n.led.TxHostDown)
	drop("rx", faults.Lost, &n.led.RxLost)
	drop("rx", faults.Corrupt, &n.led.RxCorrupt)
	drop("rx", faults.LinkDown, &n.led.RxLinkDown)
	drop("rx", faults.HostDown, &n.led.RxHostDown)
	reg.ObserveFunc("net.faults.stall_deferrals", u64(&n.led.StallDeferrals), ls...)
	reg.ObserveFunc("net.faults.send_deferrals", u64(&n.led.SendDeferrals), ls...)
	retx := func(name string, leg string, p *uint64) {
		reg.ObserveFunc(name, u64(p), telemetry.L("net", inst), telemetry.L("leg", leg))
	}
	retx("net.retx.pkts", "tx", &n.led.UplinkRetx)
	retx("net.retx.pkts", "rx", &n.led.DownlinkRetx)
	retx("net.retx.aborted", "tx", &n.led.TxAborted)
	retx("net.retx.aborted", "rx", &n.led.RxAborted)
	reg.ObserveFunc("net.retx.acks_lost", u64(&n.led.AcksLost), ls...)
	reg.ObserveFunc("net.retx.dup_suppressed", u64(&n.led.DupSuppressed), ls...)
}

// instrumentHA registers the replication/failover series of a network with
// a warm standby. Only called when the pair exists, so unreplicated runs
// export the same metric set as before.
func (n *Network) instrumentHA(reg *telemetry.Registry, inst string) {
	ls := []telemetry.Label{telemetry.L("net", inst)}
	stat := func(f func(s ha.Stats) float64) func() float64 {
		return func() float64 { return f(n.pair.Stats()) }
	}
	reg.ObserveFunc("ha.deltas_shipped", stat(func(s ha.Stats) float64 { return float64(s.DeltasShipped) }), ls...)
	reg.ObserveFunc("ha.delta_bytes", stat(func(s ha.Stats) float64 { return float64(s.DeltaBytes) }), ls...)
	reg.ObserveFunc("ha.batches", stat(func(s ha.Stats) float64 { return float64(s.Batches) }), ls...)
	reg.ObserveFunc("ha.deltas_applied", stat(func(s ha.Stats) float64 { return float64(s.DeltasApplied) }), ls...)
	reg.ObserveFunc("ha.replay_depth", stat(func(s ha.Stats) float64 { return float64(s.ReplayDepth) }), ls...)
	reg.ObserveFunc("ha.discarded_deltas", stat(func(s ha.Stats) float64 { return float64(s.DiscardedDeltas) }), ls...)
	reg.ObserveFunc("ha.staleness_max_ps", stat(func(s ha.Stats) float64 { return float64(s.MaxStalenessPs) }), ls...)
	reg.ObserveFunc("ha.promotions", stat(func(s ha.Stats) float64 { return float64(s.Promotions) }), ls...)
	reg.ObserveFunc("ha.recovery_ps", stat(func(s ha.Stats) float64 {
		if s.Promotions == 0 {
			return 0
		}
		return float64(s.PromotedAt - s.CrashAt)
	}), ls...)
	hist := reg.Histogram("ha.staleness_ps", ls...)
	n.pair.SetStalenessObserver(hist.Observe)
	reg.ObserveFunc("net.faults.crash_drops", func() float64 { return float64(n.led.CrashDrops) }, ls...)
}
