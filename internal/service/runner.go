package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/parallel"
	"repro/internal/runstate"
)

// Per-job artifact filenames under <dir>/jobs/<id>/.
const (
	jobRunDir      = "run"          // run journal directory (runstate format)
	jobOutFile     = "out.txt"      // experiment tables, byte-identical to the CLI
	jobMetricsFile = "metrics.json" // deterministic metrics export (adcp-metrics)
	jobFlightFile  = "flight.txt"   // flight-recorder dump of the last failed attempt
)

// attemptOutcome is what one execution attempt reports back to the retry
// loop in runJob.
type attemptOutcome struct {
	outDigest     string
	metricsDigest string
	err           error  // nil = every experiment succeeded and outputs committed
	class         string // parallel.Classify of the worst failure
}

// classRank orders failure classes by how strongly they indict the job
// itself: a panic or watchdog trip or budget exhaustion is poison (the job
// would hurt the next attempt too), a plain error is just a failure.
func classRank(class string) int {
	switch class {
	case "panic":
		return 3
	case "watchdog":
		return 2
	case "budget":
		return 1
	}
	return 0
}

// runConfig overlays a job's spec on the daemon's defaults. The run is the
// one `adcpsim -exp <sel> -metrics FILE -exp-event-budget N -parallel P`
// describes, every other flag at its default, so that command can resume
// the job's run directory and a recovered job refuses to resume under a
// mutated spec.
func (d *Daemon) runConfig(s Spec) (RunConfig, error) {
	sel, err := Select(d.cfg.Experiments, s.Exps)
	if err != nil {
		return RunConfig{}, err
	}
	budget := s.EventBudget
	if budget == 0 {
		budget = d.cfg.EventBudget
	}
	return RunConfig{Selection: sel, EventBudget: budget, Registry: true, Parallel: d.cfg.Parallel}, nil
}

// executeAttempt runs one attempt of a job: open (or resume) the job's
// private run journal, run the spec's experiments through RunExperiments —
// the batch CLI's own loop — then commit out.txt and metrics.json
// atomically.
//
// The output contract is the whole point: a done job's out.txt is
// byte-identical to `adcpsim -exp <sel>` stdout and its metrics.json to
// the CLI's -metrics export, at any attempt count and across any number of
// daemon crashes. The one place out.txt parts from the CLI's stream is a
// failed experiment: its partial output is rolled back out of the buffer.
func (d *Daemon) executeAttempt(ctx context.Context, j *job, attempt int) attemptOutcome {
	jobDir := d.jobDir(j.id)
	if err := os.MkdirAll(jobDir, 0o777); err != nil {
		return attemptOutcome{err: err, class: "error"}
	}
	cfg, err := d.runConfig(j.spec)
	if err != nil {
		return attemptOutcome{err: err, class: "error"}
	}
	jr, err := d.openRunJournal(filepath.Join(jobDir, jobRunDir), j.id, cfg.Digest())
	if err != nil {
		return attemptOutcome{err: err, class: "error"}
	}
	// Closing the journal before returning fences off any goroutine a
	// tripped watchdog abandoned — its late unit writes fail on the closed
	// journal instead of landing in the next job's.
	defer jr.Close()

	tel := cfg.Telemetry()
	var out bytes.Buffer
	var failed []string
	var firstErr error
	worst := ""
	mark := 0 // out's length when the running experiment started
	RunExperiments(ctx, cfg, tel, jr, &out, d.cfg.Stderr, func(name string, st ExpState, err error) {
		switch st {
		case ExpRunning:
			mark = out.Len()
		case ExpSkipped:
			// Deadline or cancellation mid-job: the remaining experiments
			// are skipped-as-failed, exactly like the CLI's -exp-timeout.
			if firstErr == nil {
				firstErr, worst = err, "watchdog"
			}
		case ExpFailed:
			out.Truncate(mark)
			class := parallel.Classify(err)
			if firstErr == nil {
				firstErr = err
			}
			if worst == "" || classRank(class) > classRank(worst) {
				worst = class
			}
			fmt.Fprintf(d.cfg.Stderr, "service: job %s experiment %s failed: %v\n", j.id, name, err)
		}
		if err != nil {
			failed = append(failed, name)
		}
		j.view.Update(name, st, err, tel.Metrics)
	})

	// Commit outputs even on a failed attempt: partial tables and metrics
	// are exactly what a human debugging the failure wants, and the final
	// attempt's files are the job's post-mortem record.
	outBytes := out.Bytes()
	if err := runstate.WriteFileAtomic(filepath.Join(jobDir, jobOutFile), outBytes); err != nil {
		return attemptOutcome{err: err, class: "error"}
	}
	var metBuf bytes.Buffer
	if err := tel.Metrics.WriteJSON(&metBuf); err != nil {
		return attemptOutcome{err: err, class: "error"}
	}
	metBytes := metBuf.Bytes()
	if err := runstate.WriteFileAtomic(filepath.Join(jobDir, jobMetricsFile), metBytes); err != nil {
		return attemptOutcome{err: err, class: "error"}
	}

	if len(failed) > 0 {
		// Keep a flight-recorder dump alongside the outputs: the last
		// simulation events before the failure, the same post-mortem the
		// CLI dumps to stderr on a watchdog kill.
		dumpErr := runstate.AtomicWrite(filepath.Join(jobDir, jobFlightFile), func(w io.Writer) error {
			tel.Rec().Dump(w, fmt.Sprintf("job %s attempt %d: %d experiment(s) failed", j.id, attempt, len(failed)))
			return nil
		})
		if dumpErr != nil {
			fmt.Fprintf(d.cfg.Stderr, "service: job %s flight dump: %v\n", j.id, dumpErr)
		}
		if worst == "" {
			worst = "error"
		}
		return attemptOutcome{
			err:   fmt.Errorf("%d of %d experiments failed (%s): first: %w", len(failed), len(cfg.Selection), worst, firstErr),
			class: worst,
		}
	}
	return attemptOutcome{
		outDigest:     runstate.Digest(outBytes),
		metricsDigest: runstate.Digest(metBytes),
	}
}

// openRunJournal opens the job's run journal, resuming when one exists. A
// journal too damaged to resume is cleared and the job starts fresh — a
// job must always be runnable from its submit record alone.
func (d *Daemon) openRunJournal(runDir, id, config string) (*runstate.Journal, error) {
	opts := runstate.OpenOptions{Config: config, Argv: []string{"daemon-job", id}}
	if _, err := os.Stat(filepath.Join(runDir, "journal.jsonl")); err == nil {
		opts.Resume = true
	}
	jr, err := runstate.Open(runDir, opts)
	if err == nil {
		return jr, nil
	}
	if !opts.Resume {
		return nil, err
	}
	fmt.Fprintf(d.cfg.Stderr, "service: job %s run journal unusable (%v), restarting it fresh\n", id, err)
	if rerr := os.RemoveAll(runDir); rerr != nil {
		return nil, rerr
	}
	opts.Resume = false
	return runstate.Open(runDir, opts)
}
