package telemetry

import (
	"strconv"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/tm"
)

// PipelineObserver adapts a pipeline's existing Observer stream into
// telemetry. now supplies the current simulated time (the engine clock of
// the surrounding network, or a constant for synchronous harnesses);
// clockHz converts the pipeline's modeled cycles into simulated durations.
//
// lat, when non-nil, receives every traversal's latency in picoseconds — a
// bounded log-bucketed histogram, so million-packet runs cost O(buckets)
// memory. tr, when non-nil, is the pipeline's trace thread: with
// detail=false it receives only per-traversal summaries (one complete
// event per EvDone, plus an instant for each recirculation request); with
// detail=true every stage visit becomes an instant event — stage occupancy
// at full resolution, at a large event-volume cost. Its span thread
// additionally receives "span" category events — a pipeline-traversal
// span per EvDone and a recirculation marker — feeding the causal-span
// layer. With both sinks nil the returned observer is nil. Only a trace
// thread with detail wants the stage events; install the observer with
// SetObserver then and with SetTraversalObserver otherwise, so the pipeline
// keeps its flat loop and calls it once per traversal.
func PipelineObserver(lat *Histogram, tr *Track, detail bool, now func() sim.Time, clockHz float64) pipeline.Observer {
	if lat == nil && tr == nil {
		return nil
	}
	return func(ev pipeline.Event) {
		switch ev.Kind {
		case pipeline.EvDone:
			var d sim.Time // the traversal's modeled cycles at clockHz
			if clockHz > 0 {
				d = sim.Time(float64(ev.Cycles) * 1e12 / clockHz)
			}
			if lat != nil {
				lat.Observe(float64(d))
			}
			if tr == nil {
				return
			}
			tr.Complete(now(), d, "traversal", "pipeline",
				map[string]any{"cycles": ev.Cycles, "verdict": ev.Verdict.String()})
			tr.Span(now(), d, BucketPipeline.String(), tr.NewSpan(), 0, 0)
			if ev.Verdict == pipeline.VerdictRecirculate {
				tr.Instant(now(), "recirculate", "pipeline", nil)
				tr.SpanMark(now(), BucketRecirculation.String(), tr.NewSpan(), 0, 0)
			}
		case pipeline.EvStage:
			if tr != nil && detail {
				tr.Instant(now(), "stage", "pipeline",
					map[string]any{"stage": ev.Stage, "cycles": ev.Cycles})
			}
		case pipeline.EvParsed, pipeline.EvDeparsed:
			if tr != nil && detail {
				tr.Instant(now(), ev.Kind.String(), "pipeline",
					map[string]any{"cycles": ev.Cycles})
			}
		}
	}
}

// TMObserver adapts a traffic manager's Observer stream into telemetry:
// shared-buffer occupancy into gauge g (which then also tracks the peak),
// per-packet queueing delay into histogram wait (valid dequeues only —
// requires the TM to carry a clock via SetClock), and into tr, the TM's
// trace thread: tail drops as instant events and — with detail — an
// occupancy counter sample per operation (a Perfetto counter track). With
// wait set, tr's span thread also receives a "span" category queueing
// span for every timed dequeue (the packet's residence in the traffic
// manager). Any sink may be nil; with all nil the returned observer is
// nil, so the TM keeps its unobserved fast path.
func TMObserver(g *Gauge, wait *Histogram, tr *Track, detail bool, now func() sim.Time, name string) tm.Observer {
	if g == nil && wait == nil && tr == nil {
		return nil
	}
	return func(ev tm.Event) {
		if g != nil {
			g.Set(int64(ev.OccupancyBytes))
		}
		if wait != nil && ev.Op == tm.OpDequeue && ev.WaitPs >= 0 {
			wait.Observe(float64(ev.WaitPs))
			if tr != nil && ev.WaitPs > 0 {
				tr.Span(now()-sim.Time(ev.WaitPs), sim.Time(ev.WaitPs), BucketQueueing.String(), tr.NewSpan(), 0, 0)
			}
		}
		if tr == nil {
			return
		}
		if ev.Op == tm.OpDrop {
			tr.Instant(now(), name+".drop", "tm",
				map[string]any{"bytes": ev.Bytes, "queue": ev.Output})
		} else if detail {
			tr.Counter(now(), name+".occupancy_bytes", "bytes", float64(ev.OccupancyBytes))
		}
	}
}

// SwitchWiring describes a switch model to InstrumentSwitch: what differs
// between the architectures is only which counters, traffic managers and
// pipeline roles a switch has.
type SwitchWiring struct {
	Arch string // arch label value, and the trace process prefix
	// Counters registers the switch.* counters under ls, as lazily
	// evaluated ObserveFuncs (literal names, so metricnames' source scan
	// sees them).
	Counters func(reg *Registry, ls []Label)
	TMs      []NamedTM    // in traversal order
	Roles    []NamedPipes // in traversal order
	ClockHz  float64      // pipeline clock: converts modeled cycles into simulated time
}

// NamedTM is one traffic manager: Label is its tm= label value, Name its
// trace track and event prefix.
type NamedTM struct {
	Label, Name string
	TM          *tm.SharedMemoryTM
}

// NamedPipes is the pipelines that play one role (ingress, central,
// egress).
type NamedPipes struct {
	Role  string
	Pipes []*pipeline.Pipeline
}

// InstrumentSwitch attaches a switch to tel: its counters become
// lazily-evaluated registry metrics (zero hot-path cost) under arch and
// instance labels, every TM reports buffer occupancy, drops and per-packet
// queueing delay, pipeline traversal latency lands in one bounded
// histogram per role and traversal counts in one series per pipeline
// (which the sampler turns into stage-utilization time series), and —
// when the recorder exports — TMs and pipelines route their Observer
// events into sim-time trace tracks. now supplies the surrounding network's
// clock; nil means all trace events land at t=0 (synchronous harnesses)
// and queueing delays read 0.
//
// It installs pipeline and TM observers and the TM clocks, replacing any
// the caller set earlier; callers that need their own observers install
// them afterwards (telemetry then loses those streams, not vice versa).
func InstrumentSwitch(tel *Telemetry, now func() sim.Time, w SwitchWiring) {
	if !tel.Enabled() {
		return
	}
	if now == nil {
		now = func() sim.Time { return 0 }
	}
	reg := tel.Reg()
	inst := "0"
	if reg != nil {
		inst = reg.InstanceLabel("instance").Value
	}
	// Registering copies its labels, so each set is built once: the base,
	// one per TM and one per role, whose pipe label is rewritten for each
	// pipeline.
	ls := []Label{L("arch", w.Arch), L("instance", inst)}
	with := func(extra ...Label) []Label { return append(ls[:len(ls):len(ls)], extra...) }
	if reg != nil {
		w.Counters(reg, ls)
	}
	var proc *Track
	if rec := tel.Rec(); rec.Exporting() {
		proc = rec.Process(w.Arch + "/" + inst)
		proc.SpanThread("spans")
	}
	for _, t := range w.TMs {
		var occ *Gauge
		var wait *Histogram
		if reg != nil {
			// The TM's own counters, read at snapshot time; pending_pkts is
			// there so the sampler can plot live queue depth. The occupancy
			// gauge is fed by the observer below, so its peak is exported.
			q, tl := t.TM, with(L("tm", t.Label))
			reg.ObserveFunc("switch.tm.enqueued_pkts", func() float64 { return float64(q.Enqueued()) }, tl...)
			reg.ObserveFunc("switch.tm.dequeued_pkts", func() float64 { return float64(q.Dequeued()) }, tl...)
			reg.ObserveFunc("switch.tm.dropped_pkts", func() float64 { return float64(q.Dropped()) }, tl...)
			reg.ObserveFunc("switch.tm.peak_bytes", func() float64 { return float64(q.PeakOccupancy()) }, tl...)
			reg.ObserveFunc("switch.tm.pending_pkts", func() float64 { return float64(q.Pending()) }, tl...)
			occ = reg.Gauge("switch.tm.occupancy_bytes", tl...)
			wait = reg.Histogram("switch.tm.wait_ps", tl...)
		}
		t.TM.SetClock(now)
		if obs := TMObserver(occ, wait, proc.Thread(t.Name), tel.Detail, now, t.Name); obs != nil {
			t.TM.SetObserver(obs)
		}
	}
	for _, r := range w.Roles {
		var lat *Histogram
		rl := with(L("role", r.Role), L("pipe", ""))
		if reg != nil {
			lat = reg.Histogram("switch.pipeline.latency_ps", rl[:len(rl)-1]...)
		}
		// Without trace threads every pipeline of the role feeds the same
		// sinks, so they share one observer.
		var shared pipeline.Observer
		if proc == nil {
			shared = PipelineObserver(lat, nil, tel.Detail, now, w.ClockHz)
		}
		for k, p := range r.Pipes {
			if reg != nil {
				rl[len(rl)-1].Value = strconv.Itoa(k)
				reg.ObserveFunc("switch.pipeline.traversals", func() float64 { return float64(p.Packets()) }, rl...)
			}
			obs := shared
			if proc != nil {
				obs = PipelineObserver(lat, proc.Thread(r.Role+strconv.Itoa(k)), tel.Detail, now, w.ClockHz)
			}
			if proc != nil && tel.Detail {
				p.SetObserver(obs)
			} else if obs != nil {
				p.SetTraversalObserver(obs)
			}
		}
	}
}
