package parallel

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RetryPolicy configures the supervised retry plane: how many attempts a
// failing point gets, how long to back off between them, and whether a
// point that exhausts its budget is quarantined (excluded from the merge,
// reported, sweep continues) or fails the sweep the classic way.
type RetryPolicy struct {
	// MaxAttempts bounds attempts per point; ≤ 1 disables retries.
	MaxAttempts int
	// BaseBackoff is the first retry's delay, doubled per attempt
	// (seeded ±50% jitter). ≤ 0 selects 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the delay. ≤ 0 selects 5s.
	MaxBackoff time.Duration
	// Seed makes the jitter deterministic for a given (seed, point,
	// attempt) triple, so chaos tests can pin schedules.
	Seed int64
	// Quarantine, when set, converts a point that fails MaxAttempts times
	// into a *QuarantinedError: its telemetry is excluded from the merge,
	// its flight-recorder dump is preserved (journal or stderr), and the
	// rest of the sweep completes and merges normally.
	Quarantine bool
	// Sleep replaces time.Sleep between attempts; tests use it to run
	// retry schedules without wall-clock delay.
	Sleep func(time.Duration)
}

// Journal is the slice of the run journal the pool drives; satisfied by
// *runstate.Journal (declared here structurally so parallel does not
// depend on runstate). All methods must be safe for concurrent workers.
type Journal interface {
	// LookupDone returns the persisted payload of a completed unit,
	// integrity-checked against the journal's digest.
	LookupDone(unit string) ([]byte, bool)
	// Begin records an attempt starting.
	Begin(unit, spec string, seed int64, attempt int)
	// Done atomically persists the unit payload and commits it.
	Done(unit string, payload []byte) error
	// Fail records one failed attempt with its classification.
	Fail(unit string, attempt int, class, errMsg string)
	// Quarantine records retry exhaustion with a post-mortem dump.
	Quarantine(unit string, attempts int, class, errMsg string, dump []byte)
}

// QuarantinedError reports a point excluded from the sweep after
// exhausting its retry budget. The sweep's other points completed and
// merged; callers decide whether a quarantined point fails the run.
type QuarantinedError struct {
	Point    string
	Attempts int
	Class    string // panic | watchdog | budget | error
	Err      error
}

func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("quarantined after %d attempts (%s): %v", e.Attempts, e.Class, e.Err)
}

func (e *QuarantinedError) Unwrap() error { return e.Err }

// panicError is a recovered point panic, carrying the worker stack.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panicked: %v\n%s", e.val, e.stack) }

// Classify buckets a point failure for the journal and retry accounting:
// "panic" (recovered panic), "budget" (sim event budget exhausted),
// "watchdog" (wall-clock watchdog kill), else "error".
func Classify(err error) string {
	var pe *panicError
	switch {
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, sim.ErrEventBudget),
		strings.Contains(err.Error(), "event budget"):
		return "budget"
	case strings.Contains(err.Error(), "watchdog"):
		return "watchdog"
	}
	return "error"
}

// PointPayloadSchema identifies the persisted per-point payload layout.
const PointPayloadSchema = "adcp-point/1"

// pointPayload is what the journal persists for one completed point: the
// JSON round-trip of its declared result slot plus its encoded telemetry
// hub, so a resume can merge the point without re-running it.
type pointPayload struct {
	Schema string          `json:"schema"`
	Slot   json.RawMessage `json:"slot,omitempty"`
	Hub    json.RawMessage `json:"hub,omitempty"`
}

// unitID names a point's journal unit.
func unitID(p Point) string { return "point:" + p.Name }

// encodePointPayload serializes a completed point's slot and hub.
func encodePointPayload(p Point, hub *telemetry.Telemetry) ([]byte, error) {
	doc := pointPayload{Schema: PointPayloadSchema}
	if p.Slot != nil {
		b, err := json.Marshal(p.Slot)
		if err != nil {
			return nil, fmt.Errorf("point %s: encode slot: %w", p.Name, err)
		}
		doc.Slot = b
	}
	if hub != nil {
		b, err := telemetry.EncodeHubState(hub)
		if err != nil {
			return nil, fmt.Errorf("point %s: encode hub: %w", p.Name, err)
		}
		doc.Hub = b
	}
	return json.Marshal(doc)
}

// restorePoint replays a completed point from the journal: its slot is
// unmarshaled in place and its decoded hub returned for the deterministic
// merge. Any integrity or decode failure reports not-restored, so the
// point simply re-runs.
func restorePoint(j Journal, p Point, dst *telemetry.Telemetry) (*telemetry.Telemetry, bool) {
	payload, ok := j.LookupDone(unitID(p))
	if !ok {
		return nil, false
	}
	var doc pointPayload
	if err := json.Unmarshal(payload, &doc); err != nil || doc.Schema != PointPayloadSchema {
		return nil, false
	}
	if p.Slot != nil {
		if len(doc.Slot) == 0 {
			return nil, false
		}
		if err := json.Unmarshal(doc.Slot, p.Slot); err != nil {
			return nil, false
		}
	}
	var hub *telemetry.Telemetry
	if dst != nil {
		if len(doc.Hub) == 0 {
			return nil, false
		}
		h, err := telemetry.DecodeHubState(doc.Hub)
		if err != nil {
			return nil, false
		}
		hub = h
	}
	return hub, true
}

// Backoff computes the exponential, seeded-jitter delay before the retry
// following attempt (1-based). Deterministic in (policy seed, name,
// attempt); name is the sweep point's, or the daemon job's id.
func (pol RetryPolicy) Backoff(name string, attempt int) time.Duration {
	base := pol.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxB := pol.MaxBackoff
	if maxB <= 0 {
		maxB = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < maxB; i++ {
		d *= 2
	}
	if d > maxB {
		d = maxB
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	mix := h.Sum64() ^ uint64(attempt)*0x9e3779b97f4a7c15 ^ uint64(pol.Seed)
	rng := rand.New(rand.NewSource(int64(mix)))
	d = time.Duration(float64(d) * (0.5 + rng.Float64()))
	if d > maxB {
		d = maxB
	}
	return d
}

// sleepBackoff waits out the retry delay, via the policy's Sleep hook when
// set.
func sleepBackoff(pol RetryPolicy, name string, attempt int) {
	d := pol.Backoff(name, attempt)
	if d <= 0 {
		return
	}
	if pol.Sleep != nil {
		pol.Sleep(d)
		return
	}
	time.Sleep(d)
}

// flightDump renders the shared flight ring for a quarantined point's
// post-mortem record.
func flightDump(hub *telemetry.Telemetry, point string, err error) []byte {
	rec := hub.Rec()
	if rec == nil {
		return nil
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "point %s quarantined: %v\n", point, err)
	rec.Dump(&buf, "quarantine: "+point)
	return buf.Bytes()
}

// runSupervised executes one point under the retry policy and journal:
// every attempt is handed a fresh point-local hub (a failed attempt's
// partial telemetry is discarded), failures are classified and journaled,
// retries back off with seeded jitter, and exhaustion either quarantines
// the point (nil hub — excluded from merge) or returns the final error
// with its hub intact, exactly as the pre-retry engine did.
func runSupervised(pp *perf.Plane, poolStart time.Time, opt Options, p Point, worker int) (*telemetry.Telemetry, error) {
	maxAttempts := opt.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	unit := unitID(p)
	for attempt := 1; ; attempt++ {
		if opt.Journal != nil {
			opt.Journal.Begin(unit, p.Spec, p.Seed, attempt)
		}
		local := telemetry.Mirror(opt.Hub)
		err := execPoint(pp, poolStart, p, worker, local)
		if err == nil {
			if opt.Journal != nil {
				if payload, perr := encodePointPayload(p, local); perr != nil {
					fmt.Fprintf(os.Stderr, "runstate: %v (point will re-run on resume)\n", perr)
				} else if derr := opt.Journal.Done(unit, payload); derr != nil {
					fmt.Fprintf(os.Stderr, "runstate: persist %s: %v (point will re-run on resume)\n", unit, derr)
				}
			}
			return local, nil
		}
		class := Classify(err)
		if opt.Journal != nil {
			opt.Journal.Fail(unit, attempt, class, err.Error())
		}
		if attempt < maxAttempts {
			pp.RetryRetried()
			sleepBackoff(opt.Retry, p.Name, attempt)
			continue
		}
		if opt.Retry.Quarantine {
			pp.RetryQuarantined()
			dump := flightDump(opt.Hub, p.Name, err)
			if opt.Journal != nil {
				opt.Journal.Quarantine(unit, attempt, class, err.Error(), dump)
			} else if len(dump) > 0 {
				os.Stderr.Write(dump)
			}
			return nil, &QuarantinedError{Point: p.Name, Attempts: attempt, Class: class, Err: err}
		}
		return local, err
	}
}
