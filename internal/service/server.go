package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/runstate"
)

// JobView is a job's externally visible state — what GET /jobs/{id}
// returns.
type JobView struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Spec      Spec   `json:"spec"`
	Recovered bool   `json:"recovered,omitempty"` // rebuilt from the journal after a restart
	Attempts  int    `json:"attempts"`
	Class     string `json:"class,omitempty"` // terminal failure class
	Error     string `json:"error,omitempty"`

	OutDigest     string `json:"out_digest,omitempty"`
	MetricsDigest string `json:"metrics_digest,omitempty"`

	SubmittedAt string `json:"submitted_at"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

func (d *Daemon) view(j *job) JobView {
	v := JobView{
		ID: j.id, State: j.state, Spec: j.spec, Recovered: j.recovered,
		Attempts: j.starts, Class: j.class, Error: j.errMsg,
		OutDigest: j.outDigest, MetricsDigest: j.metricsDigest,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339),
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339)
	}
	return v
}

// List returns every job the daemon knows, in submission order.
func (d *Daemon) List() []JobView {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobView, 0, len(d.order))
	for _, j := range d.order {
		out = append(out, d.view(j))
	}
	return out
}

// Get returns one job's view.
func (d *Daemon) Get(id string) (JobView, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j := d.jobs[id]
	if j == nil {
		return JobView{}, ErrNotFound
	}
	return d.view(j), nil
}

// Wait blocks until the job reaches a terminal state (test convenience).
func (d *Daemon) Wait(id string) (JobView, error) {
	d.mu.Lock()
	j := d.jobs[id]
	d.mu.Unlock()
	if j == nil {
		return JobView{}, ErrNotFound
	}
	<-j.done
	return d.Get(id)
}

// Handler returns the daemon's HTTP API: the base plane (/healthz, /readyz
// — 503 while draining or at capacity — /perf, pprof), the daemon's own
// service.* series at /metrics, the job lifecycle under /jobs, and each
// job's RunView mounted under /jobs/{id}/. See docs/SERVICE.md.
func (d *Daemon) Handler() http.Handler {
	mux := BaseMux(func() map[string]any {
		d.mu.Lock()
		defer d.mu.Unlock()
		live := len(d.queue)
		if d.running != nil {
			live++
		}
		status := "ready"
		if d.draining || d.closed {
			return map[string]any{"status": "draining"}
		} else if live >= d.cfg.QueueCap {
			status = "overloaded"
		}
		return map[string]any{"status": status, "queue": live, "cap": d.cfg.QueueCap}
	})
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": d.List()})
	})
	mux.HandleFunc("GET /jobs/{id}", d.withJob(func(w http.ResponseWriter, v JobView) {
		writeJSON(w, http.StatusOK, v)
	}))
	mux.HandleFunc("DELETE /jobs/{id}", d.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", d.withJob(d.handleResult))
	mux.HandleFunc("GET /jobs/{id}/metrics.json", d.withJob(d.handleJobMetricsJSON))
	mux.HandleFunc("GET /jobs/{id}/events", d.withJob(d.handleEvents))
	mountRunView(mux, "/jobs/{id}", func(r *http.Request) (*RunView, string, State) {
		d.mu.Lock()
		defer d.mu.Unlock()
		j := d.jobs[r.PathValue("id")]
		if j == nil {
			return nil, "", ""
		}
		return j.view, j.id, j.state
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writePrometheus(w, d.met.reg.Snapshot())
	})
	return mux
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("trailing data after the spec object")
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("decode spec: %v", err)})
		return
	}
	id, err := d.Submit(spec)
	switch {
	case err == nil:
		w.Header().Set("Location", "/jobs/"+id)
		writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "state": StateQueued})
	case errors.Is(err, ErrOverCapacity):
		// Load shedding: the queue is the backpressure signal. Retry-After
		// is a hint, not a promise — the client owns its backoff.
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
	}
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := d.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"status": "cancelling"})
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
	case errors.Is(err, ErrTerminal):
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
	}
}

// handleResult serves a done job's out.txt, digest-verified against the
// journal's done record so a tampered or torn file is a loud 500, never a
// silently wrong result.
func (d *Daemon) handleResult(w http.ResponseWriter, v JobView) {
	if v.State != StateDone {
		writeJSON(w, http.StatusConflict, map[string]any{"error": "job not done", "state": v.State})
		return
	}
	b, err := os.ReadFile(filepath.Join(d.jobDir(v.ID), jobOutFile))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	if got := runstate.Digest(b); got != v.OutDigest {
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error": "result digest mismatch", "want": v.OutDigest, "got": got,
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(b)
}

// handleJobMetricsJSON serves the job's committed metrics.json — the same
// deterministic document `adcpsim -metrics` writes — digest-verified for
// done jobs.
func (d *Daemon) handleJobMetricsJSON(w http.ResponseWriter, v JobView) {
	b, err := os.ReadFile(filepath.Join(d.jobDir(v.ID), jobMetricsFile))
	if err != nil {
		writeJSON(w, http.StatusConflict, map[string]any{"error": "job has not committed metrics yet", "state": v.State})
		return
	}
	if v.State == StateDone {
		if got := runstate.Digest(b); got != v.MetricsDigest {
			writeJSON(w, http.StatusInternalServerError, map[string]any{
				"error": "metrics digest mismatch", "want": v.MetricsDigest, "got": got,
			})
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleEvents serves a job's lifecycle records — its slice of the job
// journal, re-read from disk so the response is exactly what a recovery
// would replay.
func (d *Daemon) handleEvents(w http.ResponseWriter, v JobView) {
	data, err := os.ReadFile(filepath.Join(d.cfg.Dir, jobJournalFile))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	bodies, _, err := runstate.ReplayRaw(data)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	events := []json.RawMessage{}
	for _, b := range bodies {
		var rec jobRecord
		if json.Unmarshal(b, &rec) == nil && rec.ID == v.ID {
			events = append(events, json.RawMessage(b))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": v.ID, "events": events})
}

// withJob resolves the request's {id} to the job's view for fn, or
// answers 404.
func (d *Daemon) withJob(fn func(http.ResponseWriter, JobView)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := d.Get(r.PathValue("id"))
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
			return
		}
		fn(w, v)
	}
}
