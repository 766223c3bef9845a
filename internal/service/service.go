// Package service turns the experiment harness into a long-lived,
// crash-recovering job daemon: an HTTP job API backed by a durable,
// bounded job queue, with every accepted job journaled (schema adcp-job/1)
// through an explicit lifecycle FSM
//
//	queued → admitted → running → {done, failed, quarantined, cancelled}
//
// so a kill -9 of the daemon at any instant, followed by a restart on the
// same directory, recovers the queue from disk and resumes in-flight jobs
// with byte-identical results.
//
// The package lifts the single-run guarantees of internal/runstate (PR 8)
// to a fleet of jobs the same way State-Compute Replication lifts
// single-core stateful packet processing to shards: each job owns its
// state — a private run directory journaled by the same crash-safe
// machinery `adcpsim -run-dir` uses — and the service journal is a second,
// job-granular log over it. Recovery composes: the job journal replays to
// rebuild the queue, and each recovered in-flight job resumes its own run
// journal, restoring completed experiments instead of re-running them.
//
// Robustness properties, pinned by tests and the daemon-chaos CI gate:
//
//   - Admission control: the queue is bounded; submissions over capacity
//     are shed (HTTP 429 + Retry-After) without being journaled.
//   - Watchdogs: every job runs under the wall-clock/event-budget
//     watchdog plane (internal/experiments.Run).
//   - Retries + quarantine: failing jobs get bounded, seeded-backoff
//     retries; a job that exhausts them is quarantined (flight-recorder
//     post-mortem preserved) without taking down the service, and a job
//     whose starts crash the daemon repeatedly is quarantined at recovery
//     (crash-loop protection).
//   - Graceful drain: SIGTERM stops admission (readiness goes 503),
//     finishes or checkpoints running jobs, then exits; a checkpointed
//     job resumes on the next start.
//
// Jobs execute one at a time, in admission order: the experiment layer's
// journal, pool width, retry policy, point progress and event budget are
// process-wide, and RunExperiments is the one place that applies a run's
// RunConfig to them, for exactly the duration of the run. Serial execution
// is what makes a job's output byte-identical to the batch CLI run of the
// same spec. Concurrency lives in two other places — the HTTP
// plane is fully concurrent, and each job's sweep points fan out across
// the shared parallel worker pool (internal/parallel) under per-job
// telemetry hubs. See docs/SERVICE.md.
//
// The package also owns what a foreground `adcpsim -exp` run shares with a
// job, so each exists once: the run loop (RunExperiments), the selection
// and run description (Select, RunConfig — one telemetry constructor and
// one config digest, so either side resumes the other's run directory),
// and the HTTP plane (BaseMux,
// Serve, and RunView, the live record both `-serve` and /jobs/{id}/ serve).
package service

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/parallel"
	"repro/internal/runstate"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// State is a job's position in the lifecycle FSM.
type State string

// Lifecycle states. Queued and admitted and running are live; the other
// four are terminal.
const (
	StateQueued      State = "queued"      // accepted and journaled, waiting for the executor
	StateAdmitted    State = "admitted"    // claimed by the executor, not yet executing
	StateRunning     State = "running"     // an attempt is executing
	StateDone        State = "done"        // results committed, digests journaled
	StateFailed      State = "failed"      // attempts exhausted on a plain experiment error
	StateQuarantined State = "quarantined" // attempts exhausted on a poison class (panic/watchdog/budget), or crash-looping
	StateCancelled   State = "cancelled"   // cancelled via the API (or while queued at drain shutdown)
)

// Terminal reports whether the state ends the FSM.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateQuarantined, StateCancelled:
		return true
	}
	return false
}

// validNext is the lifecycle FSM: every transition the daemon performs is
// checked against it, so an impossible hop (done → running, cancelled →
// admitted) is a programming error caught loudly, not a silent corruption.
var validNext = map[State][]State{
	StateQueued:   {StateAdmitted, StateCancelled, StateQuarantined},
	StateAdmitted: {StateRunning, StateCancelled},
	StateRunning:  {StateDone, StateFailed, StateQuarantined, StateCancelled, StateQueued},
}

// canTransition reports whether from → to is a legal FSM edge. running →
// queued is the drain checkpoint: the attempt is abandoned mid-flight with
// its run journal intact, and the job re-enqueues on the next start.
func canTransition(from, to State) bool {
	for _, n := range validNext[from] {
		if n == to {
			return true
		}
	}
	return false
}

// SpecSchema identifies the job specification document.
const SpecSchema = "adcp-jobspec/1"

// Spec is what POST /jobs accepts: which experiments to run and the
// bounds the job runs under. The zero values select the daemon defaults.
type Spec struct {
	// Exps selects experiments by id, in the harness's canonical order
	// ("all" selects every experiment). Required.
	Exps []string `json:"exps"`
	// EventBudget bounds simulated events per experiment (0 = daemon
	// default; the watchdog plane converts exhaustion into a classified
	// failure).
	EventBudget uint64 `json:"event_budget,omitempty"`
	// TimeoutMs bounds the job's wall-clock time per attempt (0 = daemon
	// default).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// MaxAttempts bounds execution attempts (0 = daemon default; retries
	// back off with seeded jitter and exhaustion quarantines or fails the
	// job by failure class).
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// Select resolves an experiment selection — ids, or "all"; blank entries
// are ignored — against the experiment table, in the table's canonical
// order (which byte-identity depends on). `adcpsim -exp` and POST /jobs
// both select through it.
func Select(table []Experiment, ids []string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, id := range ids {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	all := want["all"]
	delete(want, "all")
	var sel []Experiment
	for _, e := range table {
		if all || want[e.Name] {
			sel = append(sel, e)
		}
		delete(want, e.Name)
	}
	for _, id := range ids { // in the caller's order, so the error is deterministic
		if id = strings.TrimSpace(id); want[id] {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
	}
	if len(sel) == 0 {
		return nil, errors.New("no experiments selected (experiment ids, or \"all\")")
	}
	return sel, nil
}

// RunConfig is the whole description of a run. `adcpsim -exp` fills one
// from its flags, a daemon job from its spec over the daemon's defaults
// (Daemon.runConfig), and RunExperiments applies it. The first group
// shapes tables, metrics or samples, and Digest records it. The second
// only schedules the run and never changes output bytes, so a resume may
// vary it.
type RunConfig struct {
	Selection        []Experiment // as Select resolved it
	EventBudget      uint64       // sim events per experiment; 0 = unbounded
	Registry         bool         // a metrics registry exists (required by Sampler)
	Sampler          bool         // a sampler exists
	Detail           bool         // per-stage trace events; needs Tracer
	SampleIntervalUS int          // ≤ 0 = telemetry.DefaultSampleInterval
	SampleCap        int          // ≤ 0 = telemetry.DefaultSampleCapacity

	Tracer        bool                 // the recorder exports trace events; sweeps then run on one worker
	Parallel      int                  // sweep worker-pool width; ≤ 0 = runtime.NumCPU()
	Retry         parallel.RetryPolicy // sweep-point retries; zero = one attempt
	PointProgress func(sweep string, done, total int)
}

// Telemetry builds the run's hub: the registry and sampler the config asks
// for, and a recorder that exports trace events when Tracer is set. Its
// flight ring is always on, so a watchdog kill or an invariant trip can
// dump what the simulation did last.
func (c RunConfig) Telemetry() *telemetry.Telemetry {
	tel := &telemetry.Telemetry{Detail: c.Detail && c.Tracer, Recorder: telemetry.NewRecorder(c.Tracer)}
	if c.Registry {
		tel.Metrics = telemetry.NewRegistry()
	}
	if c.Sampler {
		tel.Sampler = telemetry.NewSampler(tel.Metrics, sim.Time(c.SampleIntervalUS)*sim.Microsecond, c.SampleCap)
	}
	return tel
}

// Digest canonicalizes the output-shaping knobs into the digest a run
// journal records; runstate.Open refuses to resume a journal whose digest
// differs. A knob is recorded as it takes effect: the sampling knobs as
// NewSampler applies them (the defaults without a sampler), detail as
// false unless the recorder exports.
func (c RunConfig) Digest() string {
	names := make([]string, len(c.Selection))
	for i, e := range c.Selection {
		names[i] = e.Name
	}
	sort.Strings(names)
	iv, capacity := int(telemetry.DefaultSampleInterval/sim.Microsecond), telemetry.DefaultSampleCapacity
	if c.Sampler && c.SampleIntervalUS > 0 {
		iv = c.SampleIntervalUS
	}
	if c.Sampler && c.SampleCap > 0 {
		capacity = c.SampleCap
	}
	canon := fmt.Sprintf("adcp-config/1 exps=%s sample-interval-us=%d sample-cap=%d event-budget=%d registry=%v sampler=%v detail=%v",
		strings.Join(names, ","), iv, capacity, c.EventBudget, c.Registry, c.Sampler, c.Detail && c.Tracer)
	return runstate.Digest([]byte(canon))
}

// Experiment is one entry of the harness's experiment table, injected by
// the CLI so the service can run (and validate) job selections without
// depending on cmd/adcpsim.
type Experiment struct {
	Name string
	Desc string
	Run  func(w io.Writer) error
}
