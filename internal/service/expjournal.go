package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/runstate"
	"repro/internal/telemetry"
)

// ExpState is a step of RunExperiments' per-experiment sequence, reported
// to the caller as it happens.
type ExpState string

// Every selected experiment reports exactly one of ExpSkipped, ExpRestored
// or ExpRunning first; ExpRunning is followed by ExpDone or ExpFailed.
const (
	ExpSkipped  ExpState = "skipped"  // ctx was already done; not run, counts as failed
	ExpRestored ExpState = "restored" // replayed whole from the run journal
	ExpRunning  ExpState = "running"  // about to run
	ExpDone     ExpState = "done"     // ran; output framed, journal unit committed
	ExpFailed   ExpState = "failed"   // ran and returned err (watchdog and budget trips included)
)

// RunExperiments is the one experiment run loop: `adcpsim -exp` and every
// daemon job attempt run their cfg through it, which is what keeps a job's
// output byte-identical to the CLI's and lets either resume the other's
// run directory. It runs cfg.Selection in order under ctx, writing their
// tables to out — each followed by a blank line — and folding their
// telemetry into tel (built by cfg.Telemetry). A failed experiment does
// not stop the ones after it; once ctx is done the remaining ones are
// skipped. on, called synchronously for every state change, is where a
// plane does its own bookkeeping (progress, publication, failure lists);
// err is non-nil for ExpFailed and ExpSkipped. An experiment the watchdog
// kills leaves exp.watchdog.trips{exp=<name>} = 1 in tel.
//
// It is the one place a run's config becomes process state: the sweep
// layer's pool width (one worker when tel's recorder exports, said on
// stderr), retry policy, point progress and journal hold for exactly the
// duration of the run, and the event budget for each experiment
// (experiments.Run).
// Clearing the journal before returning keeps a goroutine an expired
// watchdog abandoned from journaling into whatever runs next. The state is
// process-global, which is why callers run one selection at a time.
//
// Without a journal each experiment runs directly in tel and writes
// straight to out. With one the run is durable: a unit the journal already
// holds is replayed instead of run, and a fresh experiment runs in a
// mirror hub with its output teed through a capture buffer — on success
// both persist as one journal unit, a failure is journaled with its class,
// and either way the mirror merges into tel, so tel and out match a
// journal-less run byte for byte.
func RunExperiments(ctx context.Context, cfg RunConfig, tel *telemetry.Telemetry, jr *runstate.Journal,
	out, stderr io.Writer, on func(name string, st ExpState, err error)) {
	workers := cfg.Parallel
	if tel.Rec().Exporting() && workers != 1 {
		fmt.Fprintln(stderr, "tracing requested: forcing -parallel 1 (traces are not mergeable)")
		workers = 1
	}
	defer experiments.SetParallelism(experiments.SetParallelism(workers))
	experiments.SetRetryPolicy(cfg.Retry)
	defer experiments.SetRetryPolicy(parallel.RetryPolicy{})
	experiments.SetPointProgress(cfg.PointProgress)
	defer experiments.SetPointProgress(nil)
	if jr != nil {
		experiments.SetJournal(jr)
		defer experiments.SetJournal(nil)
	}
	withHub := tel.Metrics != nil
	for _, e := range cfg.Selection {
		if ctx.Err() != nil {
			on(e.Name, ExpSkipped, &experiments.WatchdogError{Name: e.Name, Err: ctx.Err()})
			continue
		}
		hub, w := tel, out
		var capt *CaptureOut
		unit, attempt := ExpUnit(e.Name), 0
		if jr != nil {
			if output, restored, ok := RestoreExperiment(jr, e.Name, withHub); ok {
				io.WriteString(out, output)
				if restored != nil {
					telemetry.Merge(tel, restored)
				}
				fmt.Fprintln(out)
				perf.Active().ResumeRestored()
				on(e.Name, ExpRestored, nil)
				continue
			}
			attempt = jr.Status(unit).Attempts + 1
			jr.Begin(unit, e.Desc, 0, attempt)
			hub = telemetry.Mirror(tel)
			capt = NewCaptureOut(out)
			w = capt
		}
		on(e.Name, ExpRunning, nil)
		var err error
		telemetry.WithDefault(hub, func() {
			err = experiments.Run(ctx, e.Name, cfg.EventBudget, func() error { return e.Run(w) })
		})
		var wd *experiments.WatchdogError
		if reg := hub.Reg(); reg != nil && errors.As(err, &wd) {
			reg.Set("exp.watchdog.trips", 1, telemetry.L("exp", e.Name))
		}
		if jr != nil {
			// A tripped watchdog abandons the experiment's goroutine; from
			// here on whatever it still writes stays in the capture buffer.
			capt.Seal()
			// Persist BEFORE merging: Merge adopts the mirror's metric
			// objects and renumbers their instance labels in place to the
			// live hub's sequence, so an encode after the merge would
			// journal global numbering and double-shift on restore.
			if err == nil {
				PersistExperiment(jr, e.Name, capt.String(), hub, withHub, stderr)
			} else {
				jr.Fail(unit, attempt, parallel.Classify(err), err.Error())
			}
			telemetry.Merge(tel, hub)
		}
		if err != nil {
			on(e.Name, ExpFailed, err)
			continue
		}
		fmt.Fprintln(out)
		on(e.Name, ExpDone, nil)
	}
}

// ExpPayloadSchema identifies the persisted per-experiment payload layout.
const ExpPayloadSchema = "adcp-exp/1"

// expPayload is what the run journal persists for one completed
// experiment: its table output verbatim plus its encoded telemetry hub, so
// a resumed run replays the experiment — bytes and metrics — without
// re-running it.
type expPayload struct {
	Schema string          `json:"schema"`
	Output string          `json:"output"`
	Hub    json.RawMessage `json:"hub,omitempty"`
}

// ExpUnit names an experiment's journal unit (sweep points inside it
// journal separately as "point:<sweep>[i]" units).
func ExpUnit(name string) string { return "exp:" + name }

// RestoreExperiment replays a completed experiment from the journal: its
// captured table output and (when the run needs one) its decoded telemetry
// hub, ready to merge. Any integrity or decode failure reports
// not-restored, so the experiment simply re-runs.
func RestoreExperiment(j *runstate.Journal, name string, wantHub bool) (string, *telemetry.Telemetry, bool) {
	payload, ok := j.LookupDone(ExpUnit(name))
	if !ok {
		return "", nil, false
	}
	var doc expPayload
	if err := json.Unmarshal(payload, &doc); err != nil || doc.Schema != ExpPayloadSchema {
		return "", nil, false
	}
	var hub *telemetry.Telemetry
	if wantHub {
		if len(doc.Hub) == 0 {
			return "", nil, false
		}
		h, err := telemetry.DecodeHubState(doc.Hub)
		if err != nil {
			return "", nil, false
		}
		hub = h
	}
	return doc.Output, hub, true
}

// PersistExperiment commits a completed experiment's output and telemetry
// to the journal. Persistence failures are reported but never fail the
// run — the experiment just re-runs on resume.
func PersistExperiment(j *runstate.Journal, name, output string, hub *telemetry.Telemetry, withHub bool, stderr io.Writer) {
	doc := expPayload{Schema: ExpPayloadSchema, Output: output}
	if withHub {
		b, err := telemetry.EncodeHubState(hub)
		if err != nil {
			fmt.Fprintf(stderr, "runstate: encode %s: %v (experiment will re-run on resume)\n", ExpUnit(name), err)
			return
		}
		doc.Hub = b
	}
	payload, err := json.Marshal(doc)
	if err == nil {
		err = j.Done(ExpUnit(name), payload)
	}
	if err != nil {
		fmt.Fprintf(stderr, "runstate: persist %s: %v (experiment will re-run on resume)\n", ExpUnit(name), err)
	}
}

// CaptureOut tees experiment output: bytes reach the live writer
// immediately (progress stays visible) while the buffer accumulates the
// experiment's verbatim output for the journal payload.
type CaptureOut struct {
	mu   sync.Mutex
	live io.Writer
	buf  bytes.Buffer
}

// NewCaptureOut returns a CaptureOut teeing to live.
func NewCaptureOut(live io.Writer) *CaptureOut { return &CaptureOut{live: live} }

func (c *CaptureOut) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf.Write(p)
	return c.live.Write(p)
}

// Seal detaches the live writer: once Seal returns no write, in flight or
// later, reaches it.
func (c *CaptureOut) Seal() {
	c.mu.Lock()
	c.live = io.Discard
	c.mu.Unlock()
}

// String returns everything written so far.
func (c *CaptureOut) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}
