package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/sim"
)

// The recorder's two sinks are fixed in size.
const (
	// FlightEvents is the flight ring's length: a dump shows at most the
	// last FlightEvents notable events.
	FlightEvents = 512
	// ExportEvents bounds the export buffer. Trace events past it are
	// counted as dropped, and both export formats report the count, so a
	// runaway trace is never silently truncated.
	ExportEvents = 1 << 20
)

// Recorder is a run's one event recorder: everything an instrumented
// component reports about simulated time goes through it, under one mutex,
// into two sinks.
//
//   - The flight ring is always on. It holds the last FlightEvents notable
//     events (sends, switch arrivals, retransmits, crashes, deliveries) as
//     fixed-size entries with static names, so Record allocates nothing.
//     Dump writes it when a watchdog fires or a run-level invariant trips,
//     turning a bare "event budget exceeded" into the trail that led there.
//   - The export buffer exists only on a recorder built to export (the
//     CLI's -trace, -trace-jsonl and -spans). It keeps the first
//     ExportEvents trace events, written through Tracks, for
//     WriteChromeTrace and WriteJSONL.
//
// Parallel sweep workers share a run's recorder: the ring is diagnostic
// state outside the deterministic exports, so it is never merged. An
// exporting recorder sees one goroutine at a time, because a sweep under
// one runs on one worker (parallel.Run). A nil *Recorder records nothing.
type Recorder struct {
	mu sync.Mutex

	ring  [FlightEvents]flightEvent
	total uint64 // ring events ever recorded; the next lands at total % FlightEvents

	export  bool
	limit   int // ExportEvents; tests lower it
	events  []traceEvent
	dropped uint64
	threads []int // per process id: threads allocated so far
}

// flightEvent is one ring entry: a static name and two event-specific
// operands (typically a coflow or uid, and a port or count).
type flightEvent struct {
	ts   sim.Time
	name string
	a, b int64
}

// phase is the trace-event phase of the Chrome trace-event format.
type phase byte

const (
	phaseComplete phase = 'X' // has a duration
	phaseInstant  phase = 'i'
	phaseCounter  phase = 'C'
	phaseMetadata phase = 'M' // names a process or thread
)

// traceEvent is one buffered trace event, timestamped in simulated
// picoseconds (the engine's unit); each export converts to its own.
type traceEvent struct {
	TS   sim.Time
	Dur  sim.Time
	Ph   phase
	Name string
	Cat  string
	PID  int
	TID  int
	Args map[string]any
}

// NewRecorder returns a recorder with its flight ring, and with an export
// buffer when export is set.
func NewRecorder(export bool) *Recorder {
	return &Recorder{export: export, limit: ExportEvents}
}

// Exporting reports whether r keeps trace events for export. Chain
// accounting and sweep scheduling key on this, not on r existing: every
// CLI and daemon run carries a recorder for its ring.
func (r *Recorder) Exporting() bool { return r != nil && r.export }

// Record appends one event to the flight ring, overwriting the oldest once
// the ring is full. ev must be a static string. Nil-safe.
func (r *Recorder) Record(ts sim.Time, ev string, a, b int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ring[r.total%FlightEvents] = flightEvent{ts: ts, name: ev, a: a, b: b}
	r.total++
	r.mu.Unlock()
}

// Dump writes the flight ring oldest-first as a human-readable table,
// headed by the trigger reason. Nil-safe.
func (r *Recorder) Dump(w io.Writer, reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	total := r.total
	oldest, held := total%FlightEvents, min(total, FlightEvents)
	evs := append(append(make([]flightEvent, 0, held), r.ring[oldest:held]...), r.ring[:oldest]...)
	r.mu.Unlock()
	fmt.Fprintf(w, "flight recorder dump (%s): last %d of %d events\n", reason, len(evs), total)
	for _, ev := range evs {
		fmt.Fprintf(w, "  t=%dps %-20s a=%d b=%d\n", int64(ev.ts), ev.name, ev.a, ev.b)
	}
}

func (r *Recorder) emit(ev traceEvent) {
	r.mu.Lock()
	r.emitLocked(ev)
	r.mu.Unlock()
}

func (r *Recorder) emitLocked(ev traceEvent) {
	if len(r.events) >= r.limit {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// Process opens a trace process (a switch or network instance) named name
// and returns its handle, or nil unless r exports. The handle is not a
// thread of its own: it allocates the process's threads.
func (r *Recorder) Process(name string) *Track {
	if !r.Exporting() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	pid := len(r.threads)
	r.threads = append(r.threads, 0)
	r.emitLocked(traceEvent{Ph: phaseMetadata, Name: "process_name", PID: pid, Args: map[string]any{"name": name}})
	return &Track{r: r, pid: pid}
}

// Track is where one component writes its trace events: a thread of a
// process on an exporting recorder. Its span methods write to the
// process's span thread instead, numbering spans from that thread's
// counter, so every component of one switch shares one span-id space. A
// nil *Track records nothing, which is how instrumented code stays free
// when the recorder does not export. A track belongs to one simulation, on
// one goroutine.
type Track struct {
	r        *Recorder
	pid, tid int
	spans    *Track // the process's span thread, once allocated
	last     SpanID // span ids handed out, on a span thread
}

// Thread allocates the next thread of t's process, named name. Spans
// written through it land on the process's span thread. Nil-safe.
func (t *Track) Thread(name string) *Track {
	if t == nil {
		return nil
	}
	r := t.r
	r.mu.Lock()
	defer r.mu.Unlock()
	tid := r.threads[t.pid]
	r.threads[t.pid]++
	r.emitLocked(traceEvent{Ph: phaseMetadata, Name: "thread_name", PID: t.pid, TID: tid, Args: map[string]any{"name": name}})
	return &Track{r: r, pid: t.pid, tid: tid, spans: t.spans}
}

// SpanThread allocates the thread every span of t's process lands on;
// threads allocated from t afterwards write their spans there. Nil-safe.
func (t *Track) SpanThread(name string) *Track {
	s := t.Thread(name)
	if s != nil {
		s.spans, t.spans = s, s
	}
	return s
}

// Instant records a point event at simulated time ts. Nil-safe.
func (t *Track) Instant(ts sim.Time, name, cat string, args map[string]any) {
	if t != nil {
		t.r.emit(traceEvent{TS: ts, Ph: phaseInstant, Name: name, Cat: cat, PID: t.pid, TID: t.tid, Args: args})
	}
}

// Complete records an event spanning [ts, ts+dur]. Nil-safe.
func (t *Track) Complete(ts, dur sim.Time, name, cat string, args map[string]any) {
	if t != nil {
		t.r.emit(traceEvent{TS: ts, Dur: dur, Ph: phaseComplete, Name: name, Cat: cat, PID: t.pid, TID: t.tid, Args: args})
	}
}

// Counter records one value of counter name's series at ts, drawn by
// Perfetto as a counter track of t's process. Nil-safe.
func (t *Track) Counter(ts sim.Time, name, series string, v float64) {
	if t != nil {
		t.r.emit(traceEvent{TS: ts, Ph: phaseCounter, Name: name, Cat: "counter", PID: t.pid, Args: map[string]any{series: v}})
	}
}

// NewSpan allocates the next span id of t's process; ids are a plain
// counter from 1, so traces are reproducible at a seed. It returns 0 (no
// span) on a nil track or one whose process has no span thread.
func (t *Track) NewSpan() SpanID {
	if t == nil || t.spans == nil {
		return 0
	}
	t.spans.last++
	return t.spans.last
}

// Span records the finished span segment [ts, ts+dur] named
// "span.<name>", with its lineage in args. Nil-safe.
func (t *Track) Span(ts, dur sim.Time, name string, id, parent SpanID, coflow uint32) {
	t.span(phaseComplete, ts, dur, name, id, parent, coflow)
}

// SpanMark records a zero-duration span marker. Nil-safe.
func (t *Track) SpanMark(ts sim.Time, name string, id, parent SpanID, coflow uint32) {
	t.span(phaseInstant, ts, 0, name, id, parent, coflow)
}

func (t *Track) span(ph phase, ts, dur sim.Time, name string, id, parent SpanID, coflow uint32) {
	if t == nil || t.spans == nil {
		return
	}
	s := t.spans
	s.r.emit(traceEvent{TS: ts, Dur: dur, Ph: ph, Name: "span." + name, Cat: "span", PID: s.pid, TID: s.tid,
		Args: map[string]any{"span": uint64(id), "parent": uint64(parent), "coflow": coflow}})
}

// selected returns the buffered events an export of category cat carries:
// all of them for cat == "", else those of cat plus the metadata events
// that keep process and thread tracks named. Call with r.mu held.
func (r *Recorder) selected(cat string) []traceEvent {
	if cat == "" {
		return r.events
	}
	out := make([]traceEvent, 0, len(r.events))
	for _, ev := range r.events {
		if ev.Cat == cat || ev.Ph == phaseMetadata {
			out = append(out, ev)
		}
	}
	return out
}

// jsonlEvent is the JSONL serialization of one event: picosecond
// timestamps (exact integers), explicit phase mnemonic.
type jsonlEvent struct {
	TSPs  int64          `json:"ts_ps"`
	DurPs int64          `json:"dur_ps,omitempty"`
	Ph    string         `json:"ph"`
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteJSONL writes the export buffer's events of category cat (see
// WriteChromeTrace) one JSON object per line, in emission order, then a
// trailer line with the written count and the drop count. Nil-safe.
func (r *Recorder) WriteJSONL(w io.Writer, cat string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	events := r.selected(cat)
	for _, ev := range events {
		je := jsonlEvent{
			TSPs: int64(ev.TS), DurPs: int64(ev.Dur), Ph: string(rune(ev.Ph)),
			Name: ev.Name, Cat: ev.Cat, PID: ev.PID, TID: ev.TID, Args: ev.Args,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	trailer := map[string]any{"ph": "trailer", "events": len(events), "dropped": r.dropped}
	if err := enc.Encode(trailer); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeEvent is the Chrome trace-event serialization: timestamps in
// microseconds (the format's required unit), simulated not wall-clock.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container flavor of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// psToUs converts picoseconds to the Chrome format's microseconds.
func psToUs(t sim.Time) float64 { return float64(t) / 1e6 }

// WriteChromeTrace writes the export buffer in Chrome trace-event format
// (the JSON-object flavor), loadable in Perfetto (ui.perfetto.dev) and
// chrome://tracing, timestamped in simulated microseconds. cat == ""
// writes every event; otherwise only category cat's, plus the metadata
// events that keep tracks named. Nil-safe.
func (r *Recorder) WriteChromeTrace(w io.Writer, cat string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	events := r.selected(cat)
	ct := chromeTrace{
		DisplayTimeUnit: "ns",
		TraceEvents:     make([]chromeEvent, 0, len(events)),
		OtherData: map[string]any{
			"clock":   "simulated",
			"events":  len(events),
			"dropped": fmt.Sprintf("%d", r.dropped),
		},
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name, Cat: ev.Cat, Ph: string(rune(ev.Ph)),
			TS: psToUs(ev.TS), PID: ev.PID, TID: ev.TID, Args: ev.Args,
		}
		switch ev.Ph {
		case phaseComplete:
			ce.Dur = psToUs(ev.Dur)
		case phaseInstant:
			ce.S = "t" // thread-scoped instant
		case phaseMetadata:
			ce.TS = 0
		}
		ct.TraceEvents = append(ct.TraceEvents, ce)
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(ct); err != nil {
		return err
	}
	return bw.Flush()
}
