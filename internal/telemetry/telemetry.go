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
// A hub is handed to what observes into it: netsim.Config.Telemetry names
// a network's, and the parallel sweep engine (internal/parallel) hands
// every sweep point a point-local mirror of its destination hub so
// registries, samplers, and histograms never contend, then folds the
// mirrors back into the destination with Merge, in sweep-point order, so
// the merged export is byte-identical to a sequential run. WithDefault
// installs the process-wide hub that an experiment entry reads, once,
// through Hub().
//
// See docs/OBSERVABILITY.md for metric naming conventions, the trace
// schema, and a Perfetto how-to.
package telemetry

import "sync/atomic"

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
	// Sampler, when non-nil, is attached to every network built with this
	// hub (netsim.Config.Telemetry) and periodically snapshots the registry's scalar
	// metrics into bounded time series. Requires Metrics.
	Sampler *Sampler
	// Detail enables high-volume trace events (per-stage pipeline events
	// rather than only per-traversal summaries).
	Detail bool
}

// procHub is the process-wide hub installed by WithDefault.
var procHub atomic.Pointer[Telemetry]

// Hub returns the process-wide hub installed by WithDefault, or nil. All
// accessors on the result are nil-safe.
func Hub() *Telemetry { return procHub.Load() }

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
// sink into the next run.
func WithDefault(t *Telemetry, fn func()) {
	prev := procHub.Swap(t)
	defer procHub.Store(prev)
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
