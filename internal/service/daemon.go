package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/parallel"
	"repro/internal/perf"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrOverCapacity sheds a submission: the bounded queue is full.
	// Maps to 429 + Retry-After.
	ErrOverCapacity = errors.New("service: queue at capacity")
	// ErrDraining refuses a submission: the daemon is shutting down.
	// Maps to 503.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("service: no such job")
	// ErrTerminal refuses an operation on a job that already ended.
	ErrTerminal = errors.New("service: job already in a terminal state")
)

// Config configures a Daemon. Zero values select the documented defaults.
type Config struct {
	// Dir is the service directory: the job journal plus one subdirectory
	// per job (run journal, outputs, post-mortems). Required.
	Dir string
	// Experiments is the harness experiment table, in canonical order.
	// Required.
	Experiments []Experiment
	// QueueCap bounds live jobs (queued + running). Submissions beyond it
	// are shed. Default 16.
	QueueCap int
	// MaxAttempts bounds execution attempts per job when the spec doesn't
	// set its own. Default 2.
	MaxAttempts int
	// EventBudget is the per-experiment sim-event budget applied when the
	// spec doesn't set its own. Default 0 (unbounded).
	EventBudget uint64
	// JobTimeout is the per-attempt wall-clock watchdog applied when the
	// spec doesn't set its own. Default 0 (none).
	JobTimeout time.Duration
	// Parallel is the sweep worker-pool width jobs run under (output bytes
	// are identical at any width). Default runtime.NumCPU().
	Parallel int
	// RetryBackoff is the base delay before a retried attempt (doubles per
	// attempt, seeded ±50% jitter). Default 250ms.
	RetryBackoff time.Duration
	// RetrySeed perturbs the backoff jitter.
	RetrySeed uint64
	// CrashLoopLimit quarantines a recovered job whose journal shows this
	// many starts without ever reaching a terminal state: each start
	// evidently took the daemon down with it. Default 3.
	CrashLoopLimit int
	// Stderr receives operational log lines. Default io.Discard.
	Stderr io.Writer
	// Sleep is the backoff clock, injectable for tests. Default time.Sleep.
	Sleep func(time.Duration)
}

func (c *Config) fill() error {
	if c.Dir == "" {
		return errors.New("service: Config.Dir is required")
	}
	if len(c.Experiments) == 0 {
		return errors.New("service: Config.Experiments is required")
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.CrashLoopLimit <= 0 {
		c.CrashLoopLimit = 3
	}
	if c.Stderr == nil {
		c.Stderr = io.Discard
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return nil
}

// job is one submission's runtime state. All mutable fields are guarded by
// the daemon mutex; view is the job's live RunView, which the HTTP plane
// reads without touching that lock.
type job struct {
	id        string
	spec      Spec
	state     State
	recovered bool // rebuilt from the journal at daemon start

	starts  int // cumulative opStart records (across daemon lives)
	attempt int // latest attempt number

	class  string // terminal failure class
	errMsg string

	outDigest     string
	metricsDigest string

	submitted time.Time
	finished  time.Time

	cancelReq      bool // DELETE arrived; terminalize as cancelled
	drainStop      bool // drain deadline hit; checkpoint, do not terminalize
	cancelAttempt  context.CancelFunc
	admitJournaled bool

	view *RunView

	done chan struct{} // closed when the job reaches a terminal state
}

// Daemon is the experiment job service: a bounded durable queue, a single
// executor goroutine, and the recovery logic that rebuilds both from the
// job journal. HTTP handling lives in server.go; per-attempt execution in
// runner.go.
type Daemon struct {
	cfg     Config
	journal *jobJournal

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	order    []*job // submission order, terminal jobs included
	queue    []*job // FIFO of jobs waiting for the executor
	running  *job
	seq      int
	draining bool
	closed   bool

	execDone chan struct{}
	met      *svcMetrics
}

// New opens (or recovers) the service in cfg.Dir. Recovery replays the job
// journal: terminal jobs are kept for inspection, non-terminal jobs
// re-enter the queue in submission order — a job that was mid-attempt when
// the last daemon died resumes from its run journal — and a job whose
// starts keep killing the daemon is quarantined instead of re-admitted.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	jj, recs, err := openJobJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	replayed, err := replayJobs(recs)
	if err != nil {
		jj.close()
		return nil, err
	}
	d := &Daemon{
		cfg:      cfg,
		journal:  jj,
		jobs:     map[string]*job{},
		execDone: make(chan struct{}),
		met:      newSvcMetrics(),
	}
	d.cond = sync.NewCond(&d.mu)
	for _, r := range replayed {
		j := &job{
			id: r.id, spec: r.spec, state: r.state,
			starts: r.starts, attempt: r.attempt,
			class: r.class, errMsg: r.errMsg,
			outDigest: r.outDig, metricsDigest: r.metDig,
			submitted: time.Now(),
			done:      make(chan struct{}),
		}
		// A selection the table no longer resolves fails in executeAttempt.
		sel, _ := Select(cfg.Experiments, j.spec.Exps)
		j.view = NewRunView(sel, nil)
		d.jobs[j.id] = j
		d.order = append(d.order, j)
		d.seq++
		if j.state.Terminal() {
			close(j.done)
			continue
		}
		j.recovered = true
		d.met.recovered.Add(1)
		if j.starts >= cfg.CrashLoopLimit {
			// Every one of its starts is a daemon life that never recorded a
			// terminal state for it: treat the job as the likely killer and
			// quarantine it at the gate rather than letting it take this
			// life down too.
			msg := fmt.Sprintf("%d starts without reaching a terminal state (crash-loop limit %d)", j.starts, cfg.CrashLoopLimit)
			if err := d.journal.append(jobRecord{Op: opQuarantine, ID: j.id, Class: "crash-loop", Err: msg}); err != nil {
				jj.close()
				return nil, err
			}
			d.setTerminal(j, StateQuarantined, "crash-loop", msg)
			fmt.Fprintf(cfg.Stderr, "service: job %s quarantined at recovery: %s\n", j.id, msg)
			continue
		}
		// admit was journaled in a previous life (or start was, which
		// implies it): re-admitting must not journal a second admit, the
		// FSM would reject the replay.
		j.admitJournaled = j.state == StateAdmitted || j.state == StateRunning
		j.state = StateQueued
		d.queue = append(d.queue, j)
	}
	d.met.queueDepth.Store(int64(len(d.queue)))
	d.met.queueCap.Store(int64(cfg.QueueCap))
	return d, nil
}

// Start launches the executor. Jobs execute strictly one at a time (the
// knobs RunExperiments applies are process-global; see the package
// comment) — parallelism lives inside each job's sweep pool.
func (d *Daemon) Start() { go d.executor() }

// Submit validates, journals, and enqueues a job, returning its id.
// Returns ErrDraining during shutdown and ErrOverCapacity when the queue
// is full — in both cases nothing is journaled.
func (d *Daemon) Submit(spec Spec) (string, error) {
	sel, err := Select(d.cfg.Experiments, spec.Exps)
	if err != nil {
		return "", fmt.Errorf("spec: exps: %w", err)
	}
	switch {
	case spec.MaxAttempts < 0:
		return "", errors.New("spec: max_attempts must be ≥ 0")
	case spec.TimeoutMs < 0:
		return "", errors.New("spec: timeout_ms must be ≥ 0")
	case spec.TimeoutMs > int64(math.MaxInt64/time.Millisecond):
		// runJob multiplies by time.Millisecond; past this the product wraps.
		return "", fmt.Errorf("spec: timeout_ms must be ≤ %d", math.MaxInt64/time.Millisecond)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.draining {
		return "", ErrDraining
	}
	live := len(d.queue)
	if d.running != nil {
		live++
	}
	if live >= d.cfg.QueueCap {
		d.met.shed.Add(1)
		return "", ErrOverCapacity
	}
	d.seq++
	id := fmt.Sprintf("j%04d", d.seq)
	// Journal before exposing: once Submit returns an id, a crash must
	// never forget the job.
	sp := spec
	if err := d.journal.append(jobRecord{Op: opSubmit, ID: id, Spec: &sp}); err != nil {
		return "", err
	}
	j := &job{
		id: id, spec: spec, state: StateQueued,
		submitted: time.Now(), done: make(chan struct{}),
		view: NewRunView(sel, nil),
	}
	d.jobs[id] = j
	d.order = append(d.order, j)
	d.queue = append(d.queue, j)
	d.met.submitted.Add(1)
	d.met.queueDepth.Store(int64(len(d.queue)))
	d.cond.Signal()
	return id, nil
}

// Cancel cancels a job: a queued job terminalizes immediately, a running
// one has its attempt aborted and terminalizes when the runner unwinds.
func (d *Daemon) Cancel(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	j := d.jobs[id]
	if j == nil {
		return ErrNotFound
	}
	if j.state.Terminal() {
		return ErrTerminal
	}
	if j.state == StateRunning || j.state == StateAdmitted && d.running == j {
		j.cancelReq = true
		if j.cancelAttempt != nil {
			j.cancelAttempt()
		}
		return nil
	}
	for i, q := range d.queue {
		if q == j {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			break
		}
	}
	d.met.queueDepth.Store(int64(len(d.queue)))
	if err := d.journal.append(jobRecord{Op: opCancel, ID: j.id, Err: "cancelled via API"}); err != nil {
		return err
	}
	d.setTerminal(j, StateCancelled, "", "cancelled via API")
	return nil
}

// Drain shuts the daemon down gracefully: stop admitting (readiness goes
// 503), let the running job finish, then stop. If the running job is still
// going when timeout expires it is checkpointed — its attempt is aborted
// with the run journal intact and no terminal record, so the next daemon
// on this directory resumes it. Queued jobs similarly stay journaled as
// queued and recover on restart. Returns true when the drain completed
// without checkpointing.
func (d *Daemon) Drain(timeout time.Duration) bool {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return true
	}
	d.draining = true
	d.met.draining.Store(1)
	d.cond.Broadcast()
	d.mu.Unlock()

	clean := true
	select {
	case <-d.execDone:
	case <-time.After(timeout):
		clean = false
		d.mu.Lock()
		if j := d.running; j != nil {
			j.drainStop = true
			if j.cancelAttempt != nil {
				j.cancelAttempt()
			}
			fmt.Fprintf(d.cfg.Stderr, "service: drain deadline hit, checkpointing job %s\n", j.id)
		}
		d.mu.Unlock()
		<-d.execDone
	}
	return clean
}

// Close stops the executor (checkpointing any running job, as Drain's
// deadline path does) and closes the job journal. Idempotent.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.met.draining.Store(1)
	if j := d.running; j != nil {
		j.drainStop = true
		if j.cancelAttempt != nil {
			j.cancelAttempt()
		}
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	<-d.execDone
	return d.journal.close()
}

// executor is the single job-execution loop: pop in FIFO order, run to a
// terminal state (or checkpoint), repeat until drain or close.
func (d *Daemon) executor() {
	defer close(d.execDone)
	for {
		d.mu.Lock()
		for !d.closed && !d.draining && len(d.queue) == 0 {
			d.cond.Wait()
		}
		if d.closed || d.draining || len(d.queue) == 0 {
			d.mu.Unlock()
			return
		}
		j := d.queue[0]
		d.queue = d.queue[1:]
		d.met.queueDepth.Store(int64(len(d.queue)))
		if !j.admitJournaled {
			if err := d.journal.append(jobRecord{Op: opAdmit, ID: j.id}); err != nil {
				// An unjournalable admission is a disk-level emergency; put
				// the job back and stop executing rather than run work a
				// crash would forget.
				d.queue = append([]*job{j}, d.queue...)
				d.closed = true
				fmt.Fprintf(d.cfg.Stderr, "service: journal admit %s: %v; executor stopping\n", j.id, err)
				d.mu.Unlock()
				return
			}
			j.admitJournaled = true
		}
		d.transition(j, StateAdmitted)
		d.running = j
		d.met.running.Store(1)
		d.mu.Unlock()

		d.runJob(j)

		d.mu.Lock()
		d.running = nil
		d.met.running.Store(0)
		d.mu.Unlock()
	}
}

// runJob drives one job through bounded attempts to a terminal state — or
// to a drain checkpoint, which leaves it journaled as running so the next
// daemon resumes it.
func (d *Daemon) runJob(j *job) {
	perf.Active().JobStart(time.Since(j.submitted))
	busyStart := time.Now()
	maxAttempts := j.spec.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = d.cfg.MaxAttempts
	}
	var out attemptOutcome
	for try := 1; try <= maxAttempts; try++ {
		if try > 1 {
			perf.Active().JobAttempt()
			d.met.retried.Add(1)
			d.cfg.Sleep(parallel.RetryPolicy{
				BaseBackoff: d.cfg.RetryBackoff, MaxBackoff: 30 * time.Second, Seed: int64(d.cfg.RetrySeed),
			}.Backoff(j.id, try-1))
		}

		d.mu.Lock()
		if j.cancelReq {
			// Cancelled between attempts (or while admitted): terminalize
			// without starting another attempt.
			d.mu.Unlock()
			d.terminalize(j, StateCancelled, "", "cancelled via API", busyStart)
			return
		}
		if d.closed || j.drainStop {
			d.checkpoint(j)
			return
		}
		j.attempt = j.starts + 1
		j.starts++
		ctx, cancel := context.WithCancel(context.Background())
		if t := j.spec.TimeoutMs; t > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), time.Duration(t)*time.Millisecond)
		} else if d.cfg.JobTimeout > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), d.cfg.JobTimeout)
		}
		j.cancelAttempt = cancel
		attempt := j.attempt
		if err := d.journal.append(jobRecord{Op: opStart, ID: j.id, Attempt: attempt}); err != nil {
			cancel()
			j.cancelAttempt = nil
			d.mu.Unlock()
			d.terminalize(j, StateFailed, "error", fmt.Sprintf("journal start: %v", err), busyStart)
			return
		}
		if j.state != StateRunning { // a retry stays running across attempts
			d.transition(j, StateRunning)
		}
		d.mu.Unlock()

		out = d.executeAttempt(ctx, j, attempt)
		cancel()

		d.mu.Lock()
		j.cancelAttempt = nil
		aborted := j.cancelReq || j.drainStop || d.closed
		d.mu.Unlock()

		if aborted {
			d.mu.Lock()
			if j.cancelReq {
				d.mu.Unlock()
				d.terminalize(j, StateCancelled, "", "cancelled via API", busyStart)
				return
			}
			d.checkpoint(j)
			return
		}
		if out.err == nil {
			d.mu.Lock()
			j.outDigest, j.metricsDigest = out.outDigest, out.metricsDigest
			d.mu.Unlock()
			if err := d.journal.append(jobRecord{Op: opDone, ID: j.id, OutDigest: out.outDigest, MetricsDigest: out.metricsDigest}); err != nil {
				d.terminalize(j, StateFailed, "error", fmt.Sprintf("journal done: %v", err), busyStart)
				return
			}
			d.met.done.Add(1) // before the state: whoever Wait wakes reads a counter that includes this job
			d.mu.Lock()
			d.setTerminal(j, StateDone, "", "")
			d.mu.Unlock()
			perf.Active().JobEnd(time.Since(busyStart))
			return
		}
		fmt.Fprintf(d.cfg.Stderr, "service: job %s attempt %d failed (%s): %v\n", j.id, attempt, out.class, out.err)
	}
	// Attempts exhausted. A plain experiment error is a failed job; a
	// poison class (panic, watchdog, budget) is quarantined — the job is
	// presumed to hurt any daemon that runs it again.
	if out.class == "error" {
		d.terminalize(j, StateFailed, out.class, out.err.Error(), busyStart)
		return
	}
	d.terminalize(j, StateQuarantined, out.class, out.err.Error(), busyStart)
}

// terminalize journals and applies a terminal state reached by the runner.
func (d *Daemon) terminalize(j *job, st State, class, msg string, busyStart time.Time) {
	op := map[State]string{StateFailed: opFail, StateQuarantined: opQuarantine, StateCancelled: opCancel}[st]
	if err := d.journal.append(jobRecord{Op: op, ID: j.id, Class: class, Err: msg}); err != nil {
		fmt.Fprintf(d.cfg.Stderr, "service: journal %s %s: %v\n", op, j.id, err)
	}
	d.mu.Lock()
	d.setTerminal(j, st, class, msg)
	d.mu.Unlock()
	perf.Active().JobEnd(time.Since(busyStart))
	switch st {
	case StateFailed:
		d.met.failed.Add(1)
	case StateQuarantined:
		d.met.quarantined.Add(1)
		fmt.Fprintf(d.cfg.Stderr, "service: job %s quarantined (%s): %s\n", j.id, class, msg)
	case StateCancelled:
		d.met.cancelled.Add(1)
	}
}

// checkpoint abandons a job mid-flight for drain/close: no terminal record
// is journaled, so on disk the job is still running and the next daemon
// recovers and resumes it. In memory it returns to queued. Caller holds mu.
func (d *Daemon) checkpoint(j *job) {
	d.transition(j, StateQueued)
	d.queue = append([]*job{j}, d.queue...)
	d.met.queueDepth.Store(int64(len(d.queue)))
	d.mu.Unlock()
}

// transition applies a validated FSM edge. Caller holds mu.
func (d *Daemon) transition(j *job, to State) {
	if !canTransition(j.state, to) {
		panic(fmt.Sprintf("service: illegal transition %s → %s for %s", j.state, to, j.id))
	}
	j.state = to
}

// setTerminal applies a terminal state. Caller holds mu (or the job is not
// yet shared).
func (d *Daemon) setTerminal(j *job, st State, class, msg string) {
	if !st.Terminal() {
		panic("service: setTerminal on non-terminal state " + string(st))
	}
	if !canTransition(j.state, st) {
		panic(fmt.Sprintf("service: illegal transition %s → %s for %s", j.state, st, j.id))
	}
	j.state = st
	j.class, j.errMsg = class, msg
	j.finished = time.Now()
	close(j.done)
}

// jobDir is the per-job directory under the service dir.
func (d *Daemon) jobDir(id string) string { return filepath.Join(d.cfg.Dir, "jobs", id) }
