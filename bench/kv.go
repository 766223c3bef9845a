package main

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	kvCoflow      = 1
	kvClients     = 8
	kvKeysPerPkt  = 8
	kvSkew        = 0.99
	kvRegCells    = 1024 // the experiments' own; the ADCP cache counts hits and misses in cells 0 and 1
	kvGap         = 100 * sim.Nanosecond
	kvFullKeys    = 65536
	kvFullHot     = 8192
	kvFullOps     = 20000
	kvQuickDivide = 64
)

// kvReq is one request packet as the client library sent it.
type kvReq struct {
	src   int
	at    sim.Time
	op    packet.KVOp
	pairs []packet.KVPair
}

// kvArch is one architecture's side of the workload: RMT takes the
// generator's packets as they are, ADCP takes them regrouped per
// partition (apps.PartitionKV), which is several times as many packets.
type kvArch struct {
	reqs      []kvReq
	templates []*packet.Packet // pristine request packets, Seq = index into reqs
	getKeys   uint64

	// Per unit.
	sw    netsim.SwitchModel
	pkts  []*packet.Packet // this unit's copies of templates
	order []*packet.Packet // switch-arrival order, recorded by the tap
	net   *netsim.Network
}

// kvRunner drives the KV cache through netsim, one round per architecture
// per unit. Zipf generation, partition regrouping, switch construction and
// cache installs happen in set-up or prepare; a round is netsim.New, the
// SendAt loop and Run.
type kvRunner struct {
	put       float64
	keys, hot int
	arch      [2]kvArch // adcp, rmt
	adcp      *apps.KVCacheADCP
	ready     bool
	// The ADCP cache's own counters as the unit started.
	hitsBefore, missesBefore uint64
}

func newKV(e env, put float64) (runner, error) {
	r := &kvRunner{put: put, keys: kvFullKeys, hot: kvFullHot}
	ops := kvFullOps
	if e.quick {
		r.keys, r.hot, ops = kvFullKeys/kvQuickDivide, kvFullHot/kvQuickDivide, kvFullOps/kvQuickDivide
	}
	injs, err := workload.KVZipf(workload.KVParams{
		CoflowID: kvCoflow, Clients: kvClients, OpsPerClient: ops, KeysPerPacket: kvKeysPerPkt,
		KeySpace: uint32(r.keys), PutFraction: put, Gap: kvGap, Seed: e.seed,
	}, kvSkew)
	if err != nil {
		return nil, err
	}
	var d packet.Decoded
	for _, inj := range injs {
		if err := d.DecodePacket(inj.Pkt); err != nil {
			return nil, err
		}
		pairs := append([]packet.KVPair(nil), d.KV.Pairs...)
		r.arch[1].add(kvReq{src: inj.Src, at: inj.At, op: d.KV.Op, pairs: pairs})
		for _, batch := range apps.PartitionKV(pairs, benchPipelines, kvKeysPerPkt) {
			r.arch[0].add(kvReq{src: inj.Src, at: inj.At, op: d.KV.Op, pairs: batch})
		}
	}
	return r, nil
}

func (a *kvArch) add(q kvReq) {
	a.templates = append(a.templates, packet.Build(packet.Header{
		Proto: packet.ProtoKV, SrcPort: uint16(q.src), CoflowID: kvCoflow,
		FlowID: uint32(q.src), Seq: uint32(len(a.reqs)),
	}, &packet.KVHeader{Op: q.op, Pairs: q.pairs}))
	a.reqs = append(a.reqs, q)
	if q.op == packet.KVGet {
		a.getKeys += uint64(len(q.pairs))
	}
}

// build constructs both caches and installs the hot set (rank i of the
// Zipf sampler is key i, so keys [0, hot) are the hottest).
func (r *kvRunner) build() error {
	adcp, err := apps.NewKVCacheADCP(adcpGeometry(r.keys, kvRegCells),
		apps.KVConfig{KeysPerPacket: kvKeysPerPkt, CacheEntries: r.hot})
	if err != nil {
		return err
	}
	// RMT replicates its table once per key of a batch, so it needs that
	// many times the SRAM to hold the same keyspace.
	rmtc, err := apps.NewKVCacheRMT(rmtGeometry(r.keys*kvKeysPerPkt, kvRegCells),
		apps.KVConfig{KeysPerPacket: kvKeysPerPkt, CacheEntries: r.hot})
	if err != nil {
		return err
	}
	for k := uint32(0); int(k) < r.hot; k++ {
		if err := adcp.Install(k, k); err != nil {
			return err
		}
		if err := rmtc.Install(k, k); err != nil {
			return err
		}
	}
	r.adcp = adcp
	r.arch[0].sw, r.arch[1].sw = adcp, rmtc
	return nil
}

func (r *kvRunner) prepare() error {
	if r.ready {
		return nil
	}
	// PUTs change the tables, so a mixed round needs fresh ones; a
	// read-only round leaves them as installed.
	if r.adcp == nil || r.put > 0 {
		if err := r.build(); err != nil {
			return err
		}
	}
	for i := range r.arch {
		a := &r.arch[i]
		a.pkts = make([]*packet.Packet, len(a.templates))
		for j, p := range a.templates {
			a.pkts[j] = p.Clone()
		}
		a.order = make([]*packet.Packet, 0, len(a.templates))
		a.net = nil
	}
	r.hitsBefore, r.missesBefore = r.adcp.Hits(), r.adcp.Misses()
	r.ready = true
	return nil
}

func (r *kvRunner) unit(tr *tracer) error {
	r.ready = false
	for i := range r.arch {
		a := &r.arch[i]
		tr.begin("round." + archs[i])
		t := &tap{inner: a.sw, timed: tr != nil, order: a.order}
		tr.begin("netsim.new")
		n, err := netsim.New(netsim.DefaultConfig(benchPorts), t)
		tr.end()
		if err != nil {
			return err
		}
		n.Tracker().Expect(kvCoflow, len(a.reqs)) // one reply per request
		tr.begin("netsim.inject")
		for j, p := range a.pkts {
			n.SendAt(a.reqs[j].src, p, a.reqs[j].at)
		}
		tr.end()
		tr.begin("netsim.run")
		n.Run()
		tr.aggregate("switch.process", t.total, t.calls)
		tr.end()
		a.net, a.order = n, t.order
		tr.end()
	}
	return nil
}

func (r *kvRunner) verify() unitStats {
	var st unitStats
	var sims []string
	for i := range r.arch {
		a := &r.arch[i]
		st.attempted += len(a.reqs)
		hosts := make([][]*packet.Packet, kvClients)
		for h := range hosts {
			hosts[h] = a.net.Host(h).Received
		}
		// The ADCP cache is one table per key partition, so one shadow map
		// describes it. RMT keeps a copy per ingress pipeline and a PUT
		// only writes the copy of the pipeline it arrives on, so its
		// pipelines diverge and each needs its own shadow.
		shards, shardOf := 1, func(int) int { return 0 }
		if i == 1 {
			shards, shardOf = benchPipelines, func(src int) int { return src / (benchPorts / benchPipelines) }
		}
		bad, hits, misses, replyHash := checkKV(a.reqs, a.order, hosts, r.hot, shards, shardOf)
		if i == 0 {
			// The ADCP cache counts per-key hits and misses itself, in
			// registers that live as long as the switch.
			gotHits, gotMisses := r.adcp.Hits()-r.hitsBefore, r.adcp.Misses()-r.missesBefore
			if gotHits != hits || gotMisses != misses || hits+misses != a.getKeys {
				bad = len(a.reqs)
			}
		}
		if bad == 0 && len(a.net.Errors()) > 0 {
			bad = len(a.reqs)
		}
		st.failed += bad
		st.events += a.net.Engine().Fired()
		sims = append(sims, fmt.Sprintf("%s: cct=%d injected=%d delivered=%d events=%d hits=%d misses=%d replies=%x ledger=%+v",
			archs[i], a.net.Tracker().Status(kvCoflow).CCT(), a.net.Injected(), a.net.Delivered(),
			a.net.Engine().Fired(), hits, misses, replyHash, a.net.Ledger()))
	}
	st.sim = strings.Join(sims, "\n")
	return st
}

// checkKV replays the requests against shadow maps (one per independent
// copy of the cache; shardOf maps a client to its copy) in the order the
// switch saw them and checks every reply: one per request, the right
// hit/miss verdict, the shadow's value for every hit key, and the
// client's own pairs otherwise. It returns the number of requests whose
// reply is missing, duplicated or wrong, the per-key hit and miss counts
// the shadows predict, and a hash of the replies in request order.
func checkKV(reqs []kvReq, order []*packet.Packet, hosts [][]*packet.Packet, hot, shards int, shardOf func(src int) int) (bad int, hits, misses uint64, replyHash []byte) {
	replies := make([]*packet.Packet, len(reqs))
	var d packet.Decoded
	for _, received := range hosts {
		for _, p := range received {
			if err := d.DecodePacket(p); err != nil || int(d.Base.Seq) >= len(reqs) || replies[d.Base.Seq] != nil {
				bad++ // undecodable, unknown or duplicate reply
				continue
			}
			replies[d.Base.Seq] = p
		}
	}
	shadows := make([]map[uint32]uint32, shards)
	for s := range shadows {
		shadows[s] = make(map[uint32]uint32, hot)
		for k := 0; k < hot; k++ {
			shadows[s][uint32(k)] = uint32(k)
		}
	}
	seen := make([]bool, len(reqs))
	want := make([]packet.KVPair, kvKeysPerPkt)
	for _, p := range order {
		if err := d.DecodePacket(p); err != nil || int(d.Base.Seq) >= len(reqs) || seen[d.Base.Seq] {
			bad++
			continue
		}
		i := d.Base.Seq
		seen[i] = true
		q := reqs[i]
		shadow := shadows[shardOf(q.src)]
		want = append(want[:0], q.pairs...)
		wantOp := packet.KVHit
		if q.op == packet.KVPut {
			for _, pair := range q.pairs {
				shadow[pair.Key] = pair.Value
			}
		} else {
			for j, pair := range q.pairs {
				if v, ok := shadow[pair.Key]; ok {
					want[j].Value = v
					hits++
				} else {
					wantOp = packet.KVMiss
					misses++
				}
			}
		}
		if !kvReplyIs(replies[i], &d, q.src, wantOp, want) {
			bad++
		}
	}
	h := sha256.New()
	for i, p := range replies {
		if !seen[i] {
			bad++ // never reached the switch
		}
		if p != nil {
			h.Write(p.Data)
		}
	}
	return min(bad, len(reqs)), hits, misses, h.Sum(nil)
}

// kvReplyIs reports whether p is the reply the shadow predicts.
func kvReplyIs(p *packet.Packet, d *packet.Decoded, client int, op packet.KVOp, pairs []packet.KVPair) bool {
	if p == nil || p.EgressPort != client || d.DecodePacket(p) != nil || d.KV.Op != op || len(d.KV.Pairs) != len(pairs) {
		return false
	}
	for j, pair := range pairs {
		if d.KV.Pairs[j] != pair {
			return false
		}
	}
	return true
}

func (r *kvRunner) close() error { return nil }
