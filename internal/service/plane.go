package service

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/perf"
	"repro/internal/telemetry"
)

// BaseMux returns the endpoints every HTTP plane of this program serves,
// for the owner to extend: `adcpsim -serve` mounts a RunView at the root,
// the job daemon adds /jobs and mounts each job's RunView under it.
//
//	/healthz          liveness: 200 {"status":"ok","build":{…}} while the process serves
//	/readyz           readiness: ready's verdict; 200 for "ready", 503 for anything else
//	/perf             the live adcp-perf/1 document; 404 while the perf plane is off
//	/debug/pprof/...  the standard pprof handlers
//
// ready returns the /readyz body; its "status" decides the code. Liveness
// and readiness are split so an orchestrator can tell "restart me" from
// "stop sending traffic".
func BaseMux(ready func() map[string]any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "build": perf.Build()})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		body, code := ready(), http.StatusOK
		if body["status"] != "ready" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, body)
	})
	// The perf document is wall-clock data read from atomics and a
	// mutex-guarded memstats cache, so unlike /metrics it can snapshot the
	// live plane from the request goroutine while experiments run.
	mux.HandleFunc("/perf", func(w http.ResponseWriter, r *http.Request) {
		p := perf.Active()
		if p == nil {
			http.Error(w, "perf plane disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		p.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr and serves h in the background until the returned
// server is closed or shut down. Before it returns it calls bound with the
// resolved address (a ":0" port filled in), for the banner.
//
// The timeouts bound every connection so a stalled or malicious client can
// never pin the server (or a shutdown drain) forever. The write timeout is
// generous on purpose: /debug/pprof/profile streams a 30-second CPU
// profile by default and longer on request.
func Serve(addr string, h http.Handler, bound func(addr string)) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}
	go srv.Serve(ln)
	bound(ln.Addr().String())
	return srv, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writePrometheus serves a snapshot in Prometheus text format 0.0.4.
func writePrometheus(w http.ResponseWriter, snap telemetry.Snapshot) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheusSnapshot(w, snap)
}
