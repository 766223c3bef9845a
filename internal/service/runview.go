package service

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// RunView is the live record of one selection's run — which experiment is
// where, how long each took, where the sampler stands, and the latest
// published metrics snapshot — and the read side both HTTP planes serve
// it through: /progress and /metrics at the root under `adcpsim -serve`,
// under /jobs/{id}/ for a daemon job. The run side writes through Update
// (the RunExperiments state callback) and Publish; handlers only ever read
// the record and immutable snapshots, never a live registry, so no lock is
// shared between a request and a packet's hot path. A nil *RunView accepts
// and ignores updates.
type RunView struct {
	sampler *telemetry.Sampler
	snap    atomic.Pointer[telemetry.Snapshot]

	mu            sync.Mutex
	exps          []ExpProgress
	started, last time.Time // first and latest Update
}

// ExpProgress is one experiment's row of the /progress document.
type ExpProgress struct {
	Name   string  `json:"name"`
	State  string  `json:"state"`   // pending | running | restored | done | failed
	WallMs float64 `json:"wall_ms"` // time spent running; live while running

	startedAt time.Time
}

// ProgressDoc is the /progress response body. ID and State are the job's,
// present on the /jobs/{id}/ mount only; sim_run and sim_t_ps are the
// sampler's newest sample (zero for a run without one, as every job is).
type ProgressDoc struct {
	ID          string        `json:"id,omitempty"`
	State       State         `json:"state,omitempty"`
	WallMs      float64       `json:"wall_ms"` // first experiment start to now, or to the last state change once nothing runs
	SimRun      int           `json:"sim_run"`
	SimTPs      int64         `json:"sim_t_ps"`
	Experiments []ExpProgress `json:"experiments"`
}

// NewRunView returns the view of a run of sel, every experiment pending.
// sampler may be nil.
func NewRunView(sel []Experiment, sampler *telemetry.Sampler) *RunView {
	v := &RunView{sampler: sampler, exps: make([]ExpProgress, len(sel))}
	for i, e := range sel {
		v.exps[i] = ExpProgress{Name: e.Name, State: "pending"}
	}
	return v
}

// Update records one RunExperiments state change and, once the experiment
// is no longer running, publishes reg. An experiment reported with an
// error (ExpFailed, ExpSkipped) shows as failed.
func (v *RunView) Update(name string, st ExpState, err error, reg *telemetry.Registry) {
	if v == nil {
		return
	}
	if err != nil {
		st = ExpFailed
	}
	now := time.Now()
	v.mu.Lock()
	if v.started.IsZero() {
		v.started = now
	}
	v.last = now
	for i := range v.exps {
		e := &v.exps[i]
		if e.Name != name {
			continue
		}
		if st == ExpRunning {
			e.startedAt = now
		} else if e.State == string(ExpRunning) {
			e.WallMs = wallMs(now.Sub(e.startedAt))
		}
		e.State = string(st)
	}
	v.mu.Unlock()
	if st != ExpRunning {
		v.Publish(reg)
	}
}

// Publish snapshots reg and swaps it in for /metrics. It must run where
// reading the registry is safe: the goroutine driving the run, or the
// simulation's own (a sampler tick).
func (v *RunView) Publish(reg *telemetry.Registry) {
	if v == nil || reg == nil {
		return
	}
	snap := reg.Snapshot()
	v.snap.Store(&snap)
}

func (v *RunView) progress() ProgressDoc {
	run, at := v.sampler.Last()
	now := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	doc := ProgressDoc{SimRun: run, SimTPs: int64(at), Experiments: append(make([]ExpProgress, 0, len(v.exps)), v.exps...)}
	end := v.last
	for i := range doc.Experiments {
		if e := &doc.Experiments[i]; e.State == string(ExpRunning) {
			e.WallMs = wallMs(now.Sub(e.startedAt))
			end = now
		}
	}
	doc.WallMs = wallMs(end.Sub(v.started))
	return doc
}

func wallMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Mount serves v at the root of mux.
func (v *RunView) Mount(mux *http.ServeMux) {
	mountRunView(mux, "", func(*http.Request) (*RunView, string, State) { return v, "", "" })
}

// mountRunView registers the view's two handlers under prefix. find
// resolves a request to its view and, on the job mount, the job's id and
// state; a nil view answers 404.
//
//	prefix/progress  200 ProgressDoc
//	prefix/metrics   200 Prometheus text of the latest published snapshot — live
//	                 while the run executes, final afterwards; 409 before the first
func mountRunView(mux *http.ServeMux, prefix string, find func(*http.Request) (*RunView, string, State)) {
	mux.HandleFunc("GET "+prefix+"/progress", func(w http.ResponseWriter, r *http.Request) {
		v, id, st := find(r)
		if v == nil {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": ErrNotFound.Error()})
			return
		}
		doc := v.progress()
		doc.ID, doc.State = id, st
		writeJSON(w, http.StatusOK, doc)
	})
	mux.HandleFunc("GET "+prefix+"/metrics", func(w http.ResponseWriter, r *http.Request) {
		if v, _, _ := find(r); v == nil {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": ErrNotFound.Error()})
		} else if snap := v.snap.Load(); snap == nil {
			writeJSON(w, http.StatusConflict, map[string]any{"error": "no metrics published yet"})
		} else {
			writePrometheus(w, *snap)
		}
	})
}
