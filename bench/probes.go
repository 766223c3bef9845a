package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ha"
	"repro/internal/mat"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/parallel"
	"repro/internal/phv"
	"repro/internal/pipeline"
	"repro/internal/rmt"
	"repro/internal/runstate"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tm"
)

// The layer probes isolate one public operation of one layer each, at the
// experiments' geometry. They run in every traced run and do not depend on
// the workload. "_ns" is calibrated nanoseconds per operation, "_allocs"
// and "_bytes" are exact per operation, "_ms" is raw milliseconds (disk),
// "_s" calibrated seconds.
var probeDefs = []metricDef{
	// sim
	{Name: "sim.post_run_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.post_run_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.schedule_cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.schedule_cancel_allocs", Unit: "count", Better: "lower"},
	// packet
	{Name: "packet.build_ml_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.build_ml_allocs", Unit: "count", Better: "lower"},
	{Name: "packet.decode_ml_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.decode_kv_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.parse_bound_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.clone_allocs", Unit: "count", Better: "lower"},
	// mat
	{Name: "mat.exact_new_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.exact_new_bytes", Unit: "B", Better: "lower"},
	{Name: "mat.exact_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.exact_lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.exact_lookup_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.stage_lookup_batch8_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.stage_install_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.regfile_new_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.regfile_new_bytes", Unit: "B", Better: "lower"},
	{Name: "mat.reg_execute_ns", Unit: "ns", Better: "lower"},
	// tm, pipeline
	{Name: "tm.enq_deq_ns", Unit: "ns", Better: "lower"},
	{Name: "tm.enq_deq_allocs", Unit: "count", Better: "lower"},
	{Name: "pipeline.new_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.new_bytes", Unit: "B", Better: "lower"},
	{Name: "pipeline.process_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.process_allocs", Unit: "count", Better: "lower"},
	// rmt, core
	{Name: "rmt.new_ns", Unit: "ns", Better: "lower"},
	{Name: "rmt.new_bytes", Unit: "B", Better: "lower"},
	{Name: "rmt.process_ns", Unit: "ns", Better: "lower"},
	{Name: "rmt.process_allocs", Unit: "count", Better: "lower"},
	{Name: "core.new_ns", Unit: "ns", Better: "lower"},
	{Name: "core.new_bytes", Unit: "B", Better: "lower"},
	{Name: "core.process_ns", Unit: "ns", Better: "lower"},
	{Name: "core.process_allocs", Unit: "count", Better: "lower"},
	// netsim, coflow
	{Name: "netsim.new_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.hop_allocs", Unit: "count", Better: "lower"},
	{Name: "coflow.send_deliver_ns", Unit: "ns", Better: "lower"},
	// telemetry, ha
	{Name: "telemetry.counter_add_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "ha.capture_ms", Unit: "ms", Better: "lower"},
	{Name: "ha.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "ha.snapshot_bytes", Unit: "B", Better: "lower"},
	// runstate, service: raw, the disk decides
	{Name: "runstate.log_append_ms", Unit: "ms", Better: "lower"},
	{Name: "runstate.journal_done_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.job_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "service.journal_bytes_per_job", Unit: "B", Better: "lower"},
	// experiments, parallel: one in-process pass at parallelism 1 under a
	// metrics registry, as adcpsim -metrics runs them
	{Name: "experiments.table1_s", Unit: "s", Better: "lower"},
	{Name: "experiments.convergence_s", Unit: "s", Better: "lower"},
	{Name: "experiments.walk_s", Unit: "s", Better: "lower"},
	{Name: "experiments.failover_s", Unit: "s", Better: "lower"},
	{Name: "experiments.faults_s", Unit: "s", Better: "lower"},
	{Name: "experiments.cachehit_s", Unit: "s", Better: "lower"},
	{Name: "experiments.saturation_s", Unit: "s", Better: "lower"},
	{Name: "experiments.demux_s", Unit: "s", Better: "lower"},
	{Name: "experiments.suite_alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "parallel.pool_overhead_ns", Unit: "ns", Better: "lower"},
}

// prober collects probe readings. Times are raw until runProbes scales the
// CPU-bound ones by the calibration samples taken between the groups.
type prober struct {
	e       env
	minTime time.Duration // measure each batch probe at least this long
	values  map[string]float64
	calibs  []float64
}

// probeSink keeps constructed values alive so the compiler cannot drop
// the construction.
var probeSink any

// batch measures fn, which performs ops operations, repeating it until
// minTime has passed. prep, when given, runs untimed before every fn. It
// records name_ns, name_allocs and name_bytes per operation.
func (p *prober) batch(name string, ops int, prep, fn func()) {
	if prep != nil {
		prep()
	}
	fn() // fill pools and caches, fault pages in
	var elapsed time.Duration
	var mallocs, bytes uint64
	var before, after runtime.MemStats
	reps := 0
	for elapsed < p.minTime || reps == 0 {
		// Reading the allocator's counters stops the world: do it around
		// every fn only when prep's own allocations must stay out.
		if prep != nil {
			prep()
		}
		if prep != nil || reps == 0 {
			runtime.ReadMemStats(&before)
		}
		t := time.Now()
		fn()
		elapsed += time.Since(t)
		if prep != nil {
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		reps++
	}
	if prep == nil {
		runtime.ReadMemStats(&after)
		mallocs, bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	total := float64(reps * ops)
	p.values[name+"_ns"] = float64(elapsed.Nanoseconds()) / total
	p.values[name+"_allocs"] = float64(mallocs) / total
	p.values[name+"_bytes"] = float64(bytes) / total
}

// runProbes runs every layer probe and adds its declared metrics to values.
func runProbes(e env, values map[string]float64) error {
	p := &prober{e: e, minTime: 40 * time.Millisecond, values: map[string]float64{}}
	if e.quick {
		p.minTime = 0
	}
	groups := []func(*prober) error{probeSim, probePacket, probeMat, probeSwitch, probeNet, probeHA, probeDisk, probeExperiments}
	// One kernel run before the first group and one after each.
	var err error
	if p.calibs, err = e.calib(1); err != nil {
		return err
	}
	for _, g := range groups {
		if err := g(p); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		c, err := e.calib(1)
		if err != nil {
			return err
		}
		p.calibs = append(p.calibs, c...)
	}
	for _, d := range probeDefs {
		v, ok := p.values[d.Name]
		if !ok {
			return fmt.Errorf("probe: %s was not measured", d.Name)
		}
		if strings.HasSuffix(d.Name, "_ns") || strings.HasSuffix(d.Name, "_s") {
			v = calibrated(v, p.calibs)
		}
		values[d.Name] = v
	}
	return nil
}

func probeSim(p *prober) error {
	// The BenchmarkEngine mix: 8192 self-reposting chains keep the queue
	// at saturation-like depth across all wheel levels.
	const chains, runEvents = 8192, 1 << 17
	e := sim.NewEngine()
	p.batch("sim.post_run", runEvents, nil, func() {
		rng := sim.NewRNG(7)
		fired := 0
		var tick func()
		tick = func() {
			fired++
			if fired >= runEvents {
				return
			}
			switch rng.Intn(8) {
			case 0, 1, 2, 3:
				e.PostAfter(sim.Time(rng.Intn(200)), tick)
			case 4:
				e.Post(e.Now(), tick)
			case 5, 6:
				e.PostAfter(sim.Time(rng.Intn(1<<15)), tick)
			case 7:
				e.PostAfter(sim.Time(1<<21)+sim.Time(rng.Intn(1<<10)), tick)
			}
		}
		for c := 0; c < chains; c++ {
			e.Post(e.Now()+sim.Time(rng.Intn(1<<12)), tick)
		}
		e.Run()
	})
	// Arm a timer and cancel it, as ARQ does for every acknowledged packet.
	const timers = 4096
	e = sim.NewEngine()
	noop := func() {}
	p.batch("sim.schedule_cancel", timers, nil, func() {
		for i := 0; i < timers; i++ {
			e.Cancel(e.Schedule(e.Now()+20*sim.Microsecond, noop))
		}
		e.Run()
	})
	return nil
}

func probePacket(p *prober) error {
	const n = 4096
	mlHeader := packet.Header{Proto: packet.ProtoML, SrcPort: 3, CoflowID: 1, FlowID: 3}
	mlBody := &packet.MLHeader{Base: 64, Worker: 3, Values: []uint32{1, 2, 3, 4}}
	p.batch("packet.build_ml", n, nil, func() {
		for i := 0; i < n; i++ {
			probeSink = packet.Build(mlHeader, mlBody)
		}
	})
	ml := packet.Build(mlHeader, mlBody)
	pairs := make([]packet.KVPair, kvKeysPerPkt)
	for i := range pairs {
		pairs[i] = packet.KVPair{Key: uint32(i * 7), Value: uint32(i)}
	}
	kv := packet.Build(packet.Header{Proto: packet.ProtoKV, SrcPort: 3, CoflowID: 1}, &packet.KVHeader{Op: packet.KVGet, Pairs: pairs})
	var d packet.Decoded
	var err error
	decode := func(pkt *packet.Packet) func() {
		return func() {
			for i := 0; i < n; i++ {
				if e := d.DecodePacket(pkt); e != nil {
					err = e
				}
			}
		}
	}
	p.batch("packet.decode_ml", n, nil, decode(ml))
	p.batch("packet.decode_kv", n, nil, decode(kv))
	// The parser as a pipeline binds it: the standard graph against the
	// ADCP layout with the KV cache's key array allocated.
	layout := pipeline.StandardLayout(phv.ADCPBudget)
	if _, err := layout.AllocArray("kv_keys"); err != nil {
		return err
	}
	bound, err2 := packet.StandardGraph().Bind(func(name string, array bool) int {
		id := layout.Lookup(name)
		if id == phv.Invalid || layout.IsArray(id) != array {
			return -1
		}
		return int(id)
	})
	if err2 != nil {
		return err2
	}
	var flat packet.FlatResult
	p.batch("packet.parse_bound", n, nil, func() {
		for i := 0; i < n; i++ {
			if e := bound.Run(kv.Data, 0, &flat); e != nil {
				err = e
			}
		}
	})
	p.batch("packet.clone", n, nil, func() {
		for i := 0; i < n; i++ {
			probeSink = kv.Clone()
		}
	})
	return err
}

func probeMat(p *prober) error {
	const entries = aggTableCells // 4096: the experiments' table size
	res := mat.Result{Params: [2]uint64{1, 0}}
	key := func(i int) uint64 { return uint64(i) * 0x9E3779B1 }
	p.batch("mat.exact_new", 1, nil, func() { probeSink = mat.NewExactTable(entries) })
	var err error
	p.batch("mat.exact_insert", entries, nil, func() {
		t := mat.NewExactTable(entries) // growth from empty is part of an insert's cost
		for i := 0; i < entries; i++ {
			if e := t.Insert(key(i), res); e != nil {
				err = e
			}
		}
	})
	t := mat.NewExactTable(entries)
	for i := 0; i < entries; i++ {
		if e := t.Insert(key(i), res); e != nil {
			return e
		}
	}
	found := 0
	p.batch("mat.exact_lookup_hit", entries, nil, func() {
		for i := 0; i < entries; i++ {
			if _, ok := t.Lookup(key(i)); ok {
				found++
			}
		}
	})
	p.batch("mat.exact_lookup_miss", entries, nil, func() {
		for i := 0; i < entries; i++ {
			if _, ok := t.Lookup(key(i) + 1); ok {
				found++
			}
		}
	})
	probeSink = found
	// One ADCP stage: a shared table, eight keys matched per traversal.
	array := mat.NewStageMemory(mat.ModeArray, mat.StageMAUs, entries, 1)
	// One RMT stage laid out for the same batch: eight replicas, so an
	// install is eight inserts.
	scalar := mat.NewStageMemory(mat.ModeScalar, mat.StageMAUs, entries*kvKeysPerPkt, 1)
	if e := scalar.ConfigureReplication(kvKeysPerPkt); e != nil {
		return e
	}
	for i := 0; i < entries; i++ {
		if e := array.Install(key(i), res); e != nil {
			return e
		}
	}
	keys := make([]uint64, kvKeysPerPkt)
	results := make([]mat.Result, kvKeysPerPkt)
	hits := make([]bool, kvKeysPerPkt)
	const batches = entries / kvKeysPerPkt
	p.batch("mat.stage_lookup_batch8", batches, nil, func() {
		for b := 0; b < batches; b++ {
			for j := range keys {
				keys[j] = key(b*kvKeysPerPkt + j)
			}
			if _, e := array.LookupBatch(keys, results, hits); e != nil {
				err = e
			}
		}
	})
	// The first pass inserts, later passes overwrite: a Zipf PUT stream
	// mostly rewrites keys that are already there.
	p.batch("mat.stage_install", entries, nil, func() {
		for i := 0; i < entries; i++ {
			if e := scalar.Install(key(i), res); e != nil {
				err = e
			}
		}
	})
	const cells = kvRegCells // 1024: the experiments' register file
	p.batch("mat.regfile_new", 1, nil, func() { probeSink = mat.NewRegisterFile(cells) })
	regs := mat.NewRegisterFile(cells)
	p.batch("mat.reg_execute", entries, nil, func() {
		for i := 0; i < entries; i++ {
			regs.Execute(mat.RegAdd, i&(cells-1), 1)
		}
	})
	return err
}

// probeSwitch covers tm, pipeline, rmt and core at the experiments'
// geometry with 40-byte forwarding traffic.
func probeSwitch(p *prober) error {
	const n = 1024
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = packet.BuildRaw(packet.Header{DstPort: uint16((i + 1) % benchPorts)}, 40)
	}
	// A switch stamps the packets it forwards; put them back as sent.
	reset := func() {
		for i, pkt := range pkts {
			pkt.IngressPort, pkt.EgressPort, pkt.Recirculations = i%benchPorts, -1, 0
		}
	}
	q := tm.NewSharedMemoryTM(benchPorts, 64<<20)
	p.batch("tm.enq_deq", n, nil, func() {
		for i, pkt := range pkts {
			q.Enqueue(i%benchPorts, pkt)
			probeSink = q.Dequeue(i % benchPorts)
		}
	})
	var err error
	pipeCfg := adcpGeometry(aggTableCells, kvRegCells).Pipe
	newPipe := func() *pipeline.Pipeline {
		pl, e := pipeline.New(pipeCfg, packet.StandardGraph(), pipeline.StandardLayout(pipeCfg.PHVBudget))
		if e != nil {
			err = e
		}
		return pl
	}
	p.batch("pipeline.new", 1, nil, func() { probeSink = newPipe() })
	if err != nil {
		return err
	}
	pl := newPipe()
	p.batch("pipeline.process", n, reset, func() {
		for _, pkt := range pkts {
			ctx, e := pl.Process(pkt, nil) // six empty stages: parse, traverse, deparse
			if e != nil {
				err = e
				continue
			}
			pl.Release(ctx)
		}
	})
	var rsw *rmt.Switch
	p.batch("rmt.new", 1, nil, func() {
		rsw, err = rmt.New(rmtGeometry(aggTableCells, kvRegCells), nil, nil)
	})
	if err != nil {
		return err
	}
	var csw *core.Switch
	p.batch("core.new", 1, nil, func() {
		csw, err = core.New(adcpGeometry(aggTableCells, kvRegCells), core.Programs{})
	})
	if err != nil {
		return err
	}
	for name, sw := range map[string]netsim.SwitchModel{"rmt.process": rsw, "core.process": csw} {
		p.batch(name, n, reset, func() {
			for _, pkt := range pkts {
				if _, e := sw.Process(pkt); e != nil {
					err = e
				}
			}
		})
	}
	return err
}

func probeNet(p *prober) error {
	sw, err := core.New(adcpGeometry(aggTableCells, kvRegCells), core.Programs{})
	if err != nil {
		return err
	}
	p.batch("netsim.new", 1, nil, func() {
		n, e := netsim.New(netsim.DefaultConfig(benchPorts), sw)
		if e != nil {
			err = e
		}
		probeSink = n
	})
	// Host to pass-through switch to host: three events and both links.
	const hops = 1024
	pkts := make([]*packet.Packet, hops)
	p.batch("netsim.hop", hops, func() {
		for i := range pkts {
			pkts[i] = packet.BuildRaw(packet.Header{DstPort: uint16((i + 1) % benchPorts)}, 40)
		}
	}, func() {
		n, e := netsim.New(netsim.DefaultConfig(benchPorts), sw)
		if e != nil {
			err = e
			return
		}
		for i, pkt := range pkts {
			n.SendAt(i%benchPorts, pkt, sim.Time(i)*100*sim.Nanosecond)
		}
		n.Run()
		if n.Delivered() != hops || len(n.Errors()) > 0 {
			err = fmt.Errorf("netsim.hop: delivered %d of %d: %v", n.Delivered(), hops, n.Errors())
		}
	})
	// The remaining operations take nanoseconds: batch them by the 64 Ki.
	const tiny = 1 << 16
	tr := coflow.NewTracker()
	now := sim.Time(0)
	p.batch("coflow.send_deliver", tiny, nil, func() {
		for i := 0; i < tiny; i++ {
			now += sim.Nanosecond
			tr.Send(1, now, 64)
			tr.Deliver(1, now, 64)
		}
	})
	reg := telemetry.NewRegistry()
	counter, hist := reg.Counter("bench.probe.counter"), reg.Histogram("bench.probe.hist")
	p.batch("telemetry.counter_add", tiny, nil, func() {
		for i := 0; i < tiny; i++ {
			counter.Add(1)
		}
	})
	p.batch("telemetry.hist_observe", tiny, nil, func() {
		for i := 0; i < tiny; i++ {
			hist.Observe(float64(i) * 1e3)
		}
	})
	return err
}

// probeHA checkpoints and restores an ADCP switch that has just aggregated
// an agg-line round (the workload's warm-up), so its registers and
// counters are populated.
func probeHA(p *prober) error {
	r, err := newAgg(p.e, aggLine)
	if err != nil {
		return err
	}
	agg := r.(*aggRunner)
	fresh, err := agg.build(0)
	if err != nil {
		return err
	}
	var snap []byte
	var capture, restore []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if snap, err = ha.Capture(agg.adcp); err != nil {
			return err
		}
		capture = append(capture, time.Since(t).Seconds()*1000)
		t = time.Now()
		if err := ha.Restore(fresh.(*core.Switch), snap); err != nil {
			return err
		}
		restore = append(restore, time.Since(t).Seconds()*1000)
	}
	p.values["ha.capture_ms"] = median(capture)
	p.values["ha.restore_ms"] = median(restore)
	p.values["ha.snapshot_bytes"] = float64(len(snap))
	return nil
}

// probeDisk measures the durable layers against the real disk: raw
// milliseconds, medians unless named otherwise.
func probeDisk(p *prober) error {
	appends, jobs := 100, 200 // 200 jobs leave ten samples beyond p95
	if p.e.quick {
		appends, jobs = 5, 5
	}
	log, _, _, err := runstate.OpenLog(filepath.Join(p.e.tmp, "probe.log"))
	if err != nil {
		return err
	}
	defer log.Close()
	rec := struct {
		Op, ID string
		N      int
	}{"probe", "j0001", 0}
	var ms []float64
	for i := 0; i < appends; i++ {
		rec.N = i
		t := time.Now()
		if err := log.Append(rec); err != nil {
			return err
		}
		ms = append(ms, time.Since(t).Seconds()*1000)
	}
	p.values["runstate.log_append_ms"] = median(ms)

	journal, err := runstate.Open(filepath.Join(p.e.tmp, "probe-run"), runstate.OpenOptions{Config: "bench-probe"})
	if err != nil {
		return err
	}
	defer journal.Close()
	payload := make([]byte, 1024)
	ms = ms[:0]
	for i := 0; i < appends; i++ {
		t := time.Now()
		if err := journal.Done(fmt.Sprintf("unit-%d", i), payload); err != nil {
			return err
		}
		ms = append(ms, time.Since(t).Seconds()*1000)
	}
	p.values["runstate.journal_done_ms"] = median(ms)

	d, dir, err := startDaemon(p.e.tmp)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer d.Close()
	var submit, latency []float64
	var before int64
	for i := -daemonWarmJobs; i < jobs; i++ {
		if i == 0 {
			if before, err = journalBytes(dir); err != nil {
				return err
			}
		}
		t := time.Now()
		id, err := d.Submit(service.Spec{Exps: []string{"table3"}})
		if err != nil {
			return err
		}
		submitted := time.Since(t)
		v, err := d.Wait(id)
		if err != nil || v.State != service.StateDone {
			return fmt.Errorf("job %s ended %q: %s %v", id, v.State, v.Error, err)
		}
		if i >= 0 {
			submit = append(submit, submitted.Seconds()*1000)
			latency = append(latency, time.Since(t).Seconds()*1000)
		}
	}
	after, err := journalBytes(dir)
	if err != nil {
		return err
	}
	p.values["service.submit_ms"] = median(submit)
	p.values["service.job_p50_ms"] = median(latency)
	p.values["service.job_p95_ms"] = quantile(latency, 0.95)
	p.values["service.journal_bytes_per_job"] = float64(after-before) / float64(jobs)
	return nil
}

// probeExperiments runs the simulation-backed experiments once in this
// process, one worker, with a metrics registry installed as `adcpsim
// -metrics` installs one: the registry keeps every series of every switch
// built, which is what sweep-build's memory is made of.
func probeExperiments(p *prober) error {
	prev := experiments.SetParallelism(1)
	defer experiments.SetParallelism(prev)
	// nil selects an experiment's own sweep; quick runs one point of each.
	var workers, factors []int
	var crashes, losses, skews []float64
	var syncs []sim.Time
	if p.e.quick {
		workers, factors = []int{4}, []int{2}
		crashes, losses, skews = []float64{0.4}, []float64{0.01}, []float64{0.9}
		syncs = []sim.Time{0}
	}
	exps := []struct {
		name string
		run  func() error
	}{
		{"table1", func() error { _, _, err := experiments.Table1(); return err }},
		{"convergence", func() error {
			_, _, err := experiments.Convergence(experiments.DefaultConvergenceConfig(), workers)
			return err
		}},
		{"walk", func() error { _, _, err := experiments.Walk(); return err }},
		{"failover", func() error { _, _, err := experiments.Failover(crashes, syncs); return err }},
		{"faults", func() error { _, _, err := experiments.Faults(losses); return err }},
		{"cachehit", func() error { _, _, err := experiments.CacheHit(nil, skews); return err }},
		{"saturation", func() error { _, _, err := experiments.Saturation(); return err }},
		{"demux", func() error { _, _, err := experiments.DemuxSweep(factors); return err }},
	}
	hub := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	telemetry.WithDefault(hub, func() {
		for _, x := range exps {
			t := time.Now()
			if err = x.run(); err != nil {
				err = fmt.Errorf("experiments.%s: %w", x.name, err)
				return
			}
			p.values["experiments."+x.name+"_s"] = time.Since(t).Seconds()
		}
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	p.values["experiments.suite_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	// What the sweep pool adds per point when the point does nothing.
	const points = 512
	pts := make([]parallel.Point, points)
	for i := range pts {
		pts[i] = parallel.Point{Name: fmt.Sprintf("noop[%d]", i), Run: func() error { return nil }}
	}
	p.batch("parallel.pool_overhead", points, nil, func() {
		if e := parallel.Run(pts, parallel.Options{Workers: 1, Hub: hub}); e != nil {
			err = e
		}
	})
	return err
}
