package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// liveServer is the plane behind -serve: internal/service's base mux
// (/healthz, /readyz, /perf, pprof) with the run's RunView mounted at the
// root (/progress, /metrics), served while the experiments execute. The
// endpoint table is in docs/OBSERVABILITY.md. What is specific to a
// foreground run lives here: publishing on sampler ticks, and draining.
type liveServer struct {
	view     *service.RunView
	srv      *http.Server
	draining atomic.Bool
	lastTick atomic.Int64 // unix nanos of the last tick-driven publish
}

// listenReady, when non-nil, is invoked with the bound address right after
// the listener opens — a test hook for -serve 127.0.0.1:0.
var listenReady func(addr string)

// publishThrottle bounds how often sampler ticks re-snapshot the registry
// for /metrics; experiment boundaries always publish.
const publishThrottle = 100 * time.Millisecond

// startServer serves the run of sel, observed through tel, on addr. The
// caller must Drain it when the run ends.
func startServer(addr string, tel *telemetry.Telemetry, sel []service.Experiment, stderr io.Writer) (*liveServer, error) {
	s := &liveServer{view: service.NewRunView(sel, tel.Samp())}
	s.view.Publish(tel.Reg())
	// Sampler ticks run on the simulation goroutine — the safe place to
	// read the registry — so publishing from OnSample keeps /metrics fresh
	// mid-experiment without the server ever touching live metrics.
	if sp := tel.Samp(); sp != nil {
		reg := tel.Reg()
		sp.OnSample = func(int, sim.Time) {
			now := time.Now().UnixNano()
			if last := s.lastTick.Load(); now-last >= int64(publishThrottle) && s.lastTick.CompareAndSwap(last, now) {
				s.view.Publish(reg)
			}
		}
	}
	// The batch plane drains exactly once, at the end of the run.
	mux := service.BaseMux(func() map[string]any {
		if s.draining.Load() {
			return map[string]any{"status": "draining"}
		}
		return map[string]any{"status": "ready"}
	})
	s.view.Mount(mux)
	srv, err := service.Serve(addr, mux, func(bound string) {
		fmt.Fprintf(stderr, "serving on http://%s\n", bound)
		if listenReady != nil {
			listenReady(bound)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.srv = srv
	return s, nil
}

// Drain gracefully shuts the server down: readiness goes 503, the listener
// closes, in-flight requests get up to d to finish, then any stragglers
// are cut. The shutdown plan uses it so a scrape racing the end of the run
// completes instead of seeing a reset. Nil-safe.
func (s *liveServer) Drain(d time.Duration) {
	if s == nil {
		return
	}
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
}
