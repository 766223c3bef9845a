// Package telemetry is the observability layer of the simulator: a per-run
// registry of named, labeled metrics (counters, gauges, histograms, and
// scalar experiment results) with deterministic snapshot ordering, and one
// event recorder that keeps pipeline, traffic-manager and network events
// keyed by *simulated* time: the latest in an always-on flight ring, all of
// them (when asked to) for export. Both are optional: every instrumented
// component holds a nil-able reference, and disabled telemetry costs at
// most one nil/bool check per event on the hot paths.
//
// The registry supersedes the anonymous ad-hoc counters in internal/stats
// for anything that must leave the process: an experiment run serializes
// its registry to one machine-readable JSON document (adcpsim -metrics),
// which is byte-identical across runs at the same seed, so runs can be
// compared machine-to-machine across commits. An exporting recorder
// serializes to JSONL and to Chrome trace-event format (viewable in
// Perfetto or chrome://tracing), timestamped in simulated microseconds.
//
// Hubs are scoped two ways. WithDefault installs a process-wide hub — the
// classic single-harness mode. WithHub installs a hub for the *current
// goroutine only*, masking the process hub; the parallel sweep engine
// (internal/parallel) gives every worker its own hub this way so
// registries, samplers, and histograms never contend, then folds the
// point-local hubs back into the destination with Merge, in sweep-point
// order, so the merged export is byte-identical to a sequential run.
// Components always read the ambient hub through Hub().
//
// See docs/OBSERVABILITY.md for metric naming conventions, the trace
// schema, and a Perfetto how-to.
package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Telemetry bundles the optional sinks a run may carry. Any field may be
// nil; a nil *Telemetry disables everything.
type Telemetry struct {
	// Metrics receives named, labeled values. Nil disables metric export.
	Metrics *Registry
	// Recorder receives sim-time events: the most recent notable ones in
	// its always-on flight ring, dumped for post-mortem triage when a
	// watchdog fires or a conservation invariant trips, and — when built to
	// export — structured trace events. It is shared across parallel
	// workers (diagnostic state, exempt from merging). Nil records nothing.
	Recorder *Recorder
	// Sampler, when non-nil, is attached to every engine built under this
	// hub (netsim.New) and periodically snapshots the registry's scalar
	// metrics into bounded time series. Requires Metrics.
	Sampler *Sampler
	// Detail enables high-volume trace events (per-stage pipeline events
	// rather than only per-traversal summaries).
	Detail bool
}

// procHub is the process-wide hub installed by WithDefault; goHubs maps
// goroutine id → the hub installed by WithHub on that goroutine. A
// goroutine-local entry always wins, even when it is nil — that is how the
// parallel sweep engine masks the process hub from its workers.
var (
	procHub atomic.Pointer[Telemetry]
	goHubs  sync.Map // uint64 (goroutine id) → *Telemetry
)

// goid returns the current goroutine's id, parsed from the runtime stack
// header ("goroutine 123 [running]:"). It costs roughly a microsecond, so
// it belongs on construction and headline-record paths, never per-packet —
// instrumented components capture their sinks once, at construction.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Hub returns the ambient telemetry hub: the hub WithHub installed on the
// current goroutine if there is one (even a nil mask), else the
// process-wide hub installed by WithDefault, else nil. All accessors on
// the result are nil-safe.
func Hub() *Telemetry {
	if v, ok := goHubs.Load(goid()); ok {
		t, _ := v.(*Telemetry)
		return t
	}
	return procHub.Load()
}

// Enabled reports whether t carries at least one sink. A recorder counts
// even when it does not export: its flight ring needs the same
// instrumentation hooks.
func (t *Telemetry) Enabled() bool {
	return t != nil && (t.Metrics != nil || t.Recorder != nil)
}

// Reg returns the metrics registry, or nil. Safe on a nil receiver.
func (t *Telemetry) Reg() *Registry {
	if t == nil {
		return nil
	}
	return t.Metrics
}

// Rec returns the recorder, or nil. Safe on a nil receiver, so call sites
// can write tel.Rec().Record(...) unconditionally.
func (t *Telemetry) Rec() *Recorder {
	if t == nil {
		return nil
	}
	return t.Recorder
}

// Samp returns the sampler, or nil. Safe on a nil receiver.
func (t *Telemetry) Samp() *Sampler {
	if t == nil {
		return nil
	}
	return t.Sampler
}

// WithDefault installs t as the process-wide hub for the duration of fn,
// restoring the previous value even when fn panics. Harnesses (the CLI,
// benchmarks, tests) should always use this instead of reaching for
// package state directly: a panicking experiment must not leak a stale
// sink into the next run. Goroutines spawned while fn runs observe t via
// Hub() unless they install their own hub with WithHub.
func WithDefault(t *Telemetry, fn func()) {
	prev := procHub.Swap(t)
	defer procHub.Store(prev)
	fn()
}

// WithHub installs t as the current goroutine's hub for the duration of
// fn, restoring the previous scope even when fn panics. Unlike
// WithDefault it affects only this goroutine, and it masks the process
// hub completely — including with t == nil, which silences telemetry for
// fn. The parallel sweep engine runs every worker inside WithHub so
// concurrent sweep points observe into disjoint registries; Merge then
// folds them back deterministically.
func WithHub(t *Telemetry, fn func()) {
	id := goid()
	prev, had := goHubs.Load(id)
	goHubs.Store(id, t)
	defer func() {
		if had {
			goHubs.Store(id, prev)
		} else {
			goHubs.Delete(id)
		}
	}()
	fn()
}

// Merge folds a quiescent point-local hub into dst, renumbering instance
// labels and sampler run ordinals so that merging point hubs in
// sweep-point order reproduces, byte for byte, the registry and sampler a
// sequential run would have produced. src must not be observed into
// concurrently; dst may be shared. Recorders are not merged — parallel
// harnesses run sequentially when the recorder exports.
func Merge(dst, src *Telemetry) {
	if dst == nil || src == nil {
		return
	}
	var rn *renumbering
	if dst.Metrics != nil && src.Metrics != nil {
		rn = dst.Metrics.mergeFrom(src.Metrics)
	}
	if dst.Sampler != nil && src.Sampler != nil {
		dst.Sampler.merge(src.Sampler, rn)
	}
}
