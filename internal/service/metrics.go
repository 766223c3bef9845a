package service

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// svcMetrics is the daemon's own observability surface: lifecycle counters
// and queue gauges, mirrored in atomics so the HTTP plane's /metrics
// snapshots never touch the daemon mutex (the executor may hold it while a
// scrape arrives). The series live in a dedicated registry, separate from
// both the deterministic experiment hubs (which must stay byte-identical
// to batch runs) and the perf plane (machine-dependent wall-clock facts).
type svcMetrics struct {
	submitted   atomic.Uint64
	shed        atomic.Uint64
	done        atomic.Uint64
	failed      atomic.Uint64
	quarantined atomic.Uint64
	cancelled   atomic.Uint64
	recovered   atomic.Uint64
	retried     atomic.Uint64
	queueDepth  atomic.Int64
	queueCap    atomic.Int64
	running     atomic.Int64
	draining    atomic.Int64
	started     time.Time

	reg *telemetry.Registry
}

func newSvcMetrics() *svcMetrics {
	m := &svcMetrics{started: time.Now()}
	reg := telemetry.NewRegistry()
	reg.ObserveFunc("service.jobs.submitted", func() float64 { return float64(m.submitted.Load()) })
	reg.ObserveFunc("service.jobs.shed", func() float64 { return float64(m.shed.Load()) })
	reg.ObserveFunc("service.jobs.done", func() float64 { return float64(m.done.Load()) })
	reg.ObserveFunc("service.jobs.failed", func() float64 { return float64(m.failed.Load()) })
	reg.ObserveFunc("service.jobs.quarantined", func() float64 { return float64(m.quarantined.Load()) })
	reg.ObserveFunc("service.jobs.cancelled", func() float64 { return float64(m.cancelled.Load()) })
	reg.ObserveFunc("service.jobs.recovered", func() float64 { return float64(m.recovered.Load()) })
	reg.ObserveFunc("service.jobs.retried", func() float64 { return float64(m.retried.Load()) })
	reg.ObserveFunc("service.jobs.running", func() float64 { return float64(m.running.Load()) })
	reg.ObserveFunc("service.queue.depth", func() float64 { return float64(m.queueDepth.Load()) })
	reg.ObserveFunc("service.queue.cap", func() float64 { return float64(m.queueCap.Load()) })
	reg.ObserveFunc("service.draining", func() float64 { return float64(m.draining.Load()) })
	reg.ObserveFunc("service.uptime_s", func() float64 { return time.Since(m.started).Seconds() })
	m.reg = reg
	return m
}
