package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// jsonl exports r's events of category cat and parses every line, the
// trailer last.
func jsonl(t *testing.T, r *Recorder, cat string) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, cat); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	return lines
}

// A nil recorder and a nil track must absorb every call without panicking —
// that is the telemetry-off fast path used throughout the instrumented
// code — and a recorder that does not export hands out no tracks.
func TestNilTracerSafe(t *testing.T) {
	var r *Recorder
	if r.Exporting() {
		t.Error("nil recorder reports exporting")
	}
	r.Record(1, "x", 0, 0)
	r.Dump(&bytes.Buffer{}, "nil")
	if r.Process("p") != nil || NewRecorder(false).Process("p") != nil {
		t.Error("a recorder that does not export opened a process")
	}
	var tr *Track
	if tr.Thread("t") != nil || tr.SpanThread("s") != nil || tr.NewSpan() != 0 {
		t.Error("nil track allocated a thread or a span")
	}
	tr.Instant(1, "a", "c", nil)
	tr.Complete(1, 2, "b", "c", nil)
	tr.Counter(1, "q", "v", 1)
	tr.Span(1, 2, "s", 1, 0, 0)
	tr.SpanMark(1, "s", 1, 0, 0)
	if err := r.WriteJSONL(&bytes.Buffer{}, ""); err != nil {
		t.Error(err)
	}
	if err := r.WriteChromeTrace(&bytes.Buffer{}, ""); err != nil {
		t.Error(err)
	}
}

func TestTracerCapture(t *testing.T) {
	r := NewRecorder(true)
	tr := r.Process("switch0").Thread("ingress0")
	tr.Complete(1000, 500, "traversal", "pipeline", map[string]any{"cycles": 5})
	tr.Instant(1500, "recirculate", "pipeline", nil)
	lines := jsonl(t, r, "")
	// 2 metadata + 2 payload events + trailer.
	if len(lines) != 5 {
		t.Fatalf("captured %d lines, want 5", len(lines))
	}
	if ev := lines[2]; ev["ph"] != "X" || ev["ts_ps"] != float64(1000) || ev["dur_ps"] != float64(500) {
		t.Errorf("complete event = %v", ev)
	}
	if ev := lines[3]; ev["ph"] != "i" || ev["ts_ps"] != float64(1500) {
		t.Errorf("instant event = %v", ev)
	}
}

// Processes are numbered from 0 in opening order, threads from 0 within
// each process, and a span thread draws one id counter for its whole
// process.
func TestTracerTrackAllocation(t *testing.T) {
	r := NewRecorder(true)
	a, b := r.Process("a"), r.Process("b")
	x, y, z := a.Thread("x"), a.Thread("y"), b.Thread("z")
	if a.pid != 0 || b.pid != 1 || x.tid != 0 || y.tid != 1 || z.tid != 0 {
		t.Errorf("pids %d %d, tids %d %d %d; want 0 1, 0 1 0", a.pid, b.pid, x.tid, y.tid, z.tid)
	}
	spans := a.SpanThread("spans")
	w := a.Thread("w")
	if spans.tid != 2 || w.tid != 3 {
		t.Errorf("span thread tid %d, next thread %d; want 2 and 3", spans.tid, w.tid)
	}
	if ids := []SpanID{w.NewSpan(), spans.NewSpan(), w.NewSpan(), x.NewSpan()}; fmt.Sprint(ids) != "[1 2 3 0]" {
		t.Errorf("span ids %v: want one counter for the process from 1, and 0 on a thread allocated before it", ids)
	}
	w.Span(5, 1, "queueing", 1, 0, 7)
	last := jsonl(t, r, "span")
	if ev := last[len(last)-2]; ev["pid"] != float64(0) || ev["tid"] != float64(2) || ev["name"] != "span.queueing" {
		t.Errorf("span written through another thread landed at %v, want the span thread", ev)
	}
}

func TestTracerCapAndDropped(t *testing.T) {
	r := NewRecorder(true)
	r.limit = 3
	tr := r.Process("p").Thread("t")
	for i := 0; i < 3; i++ {
		tr.Instant(sim.Time(i), "e", "c", nil)
	}
	// The drop count must be visible in both serializations.
	var jl bytes.Buffer
	if err := r.WriteJSONL(&jl, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jl.String(), `"dropped":2,"events":3`) {
		t.Errorf("JSONL trailer missing the count or the drops:\n%s", jl.String())
	}
	var ch bytes.Buffer
	if err := r.WriteChromeTrace(&ch, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ch.String(), `"dropped":"2"`) {
		t.Errorf("chrome otherData missing drop count:\n%s", ch.String())
	}
}

func TestWriteJSONLParses(t *testing.T) {
	r := NewRecorder(true)
	r.Process("p").Thread("t").Complete(2_000_000, 1_000_000, "span", "cat", map[string]any{"k": "v"})
	lines := jsonl(t, r, "cat")
	if len(lines) != 4 { // 2 metadata + event + trailer
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	ev := lines[2]
	if ev["ts_ps"] != float64(2_000_000) || ev["dur_ps"] != float64(1_000_000) {
		t.Errorf("timestamps = %v/%v, want exact picoseconds", ev["ts_ps"], ev["dur_ps"])
	}
	if ev["ph"] != "X" {
		t.Errorf("ph = %v, want X", ev["ph"])
	}
	trailer := lines[3]
	if trailer["ph"] != "trailer" || trailer["events"] != float64(3) {
		t.Errorf("trailer = %v", trailer)
	}
}

// Chrome trace timestamps must be simulated microseconds: 2e6 ps → 2 µs.
func TestChromeTraceMicroseconds(t *testing.T) {
	r := NewRecorder(true)
	tx := r.Process("net").Thread("tx")
	tx.Complete(2_000_000, 500_000, "hop", "netsim", nil)
	tx.Instant(3_500_000, "drop", "netsim", nil)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, ""); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 { // 2 metadata + complete + instant
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta["ph"] != "M" || meta["name"] != "process_name" {
		t.Errorf("metadata event = %v", meta)
	}
	comp := doc.TraceEvents[2]
	if comp["ph"] != "X" || comp["ts"] != float64(2) || comp["dur"] != float64(0.5) {
		t.Errorf("complete event = %v, want ts=2µs dur=0.5µs", comp)
	}
	inst := doc.TraceEvents[3]
	if inst["ph"] != "i" || inst["ts"] != float64(3.5) || inst["s"] != "t" {
		t.Errorf("instant event = %v, want ts=3.5µs scope t", inst)
	}
	if doc.OtherData["clock"] != "simulated" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
}

func TestWriteChromeTraceCatFilters(t *testing.T) {
	r := NewRecorder(true)
	tr := r.Process("p").Thread("t")
	tr.Instant(1, "keep", "span", nil)
	tr.Instant(2, "drop", "net", nil)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, "span"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"keep"`) || strings.Contains(out, `"drop"`) {
		t.Fatalf("category filter failed: %s", out)
	}
	if !strings.Contains(out, "process_name") {
		t.Fatalf("metadata events must survive filtering: %s", out)
	}
	if lines := len(jsonl(t, r, "span")); lines != 4 { // 2 metadata + keep + trailer
		t.Fatalf("jsonl filter wrote %d lines, want 4", lines)
	}
}

// The ring keeps the last FlightEvents events, oldest first, and the dump
// says how many there were in all.
func TestFlightRingWrapsAndDumps(t *testing.T) {
	r := NewRecorder(false)
	for i := 0; i < FlightEvents+10; i++ {
		r.Record(sim.Time(i), "ev", int64(i), 0)
	}
	var buf bytes.Buffer
	r.Dump(&buf, "test trigger")
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if want := fmt.Sprintf("flight recorder dump (test trigger): last %d of %d events", FlightEvents, FlightEvents+10); lines[0] != want {
		t.Fatalf("dump header %q, want %q", lines[0], want)
	}
	if len(lines) != 1+FlightEvents || !strings.HasPrefix(lines[1], "  t=10ps ") || !strings.HasPrefix(lines[FlightEvents], fmt.Sprintf("  t=%dps ", FlightEvents+9)) {
		t.Fatalf("ring not the last %d events oldest-first: first %q, last %q", FlightEvents, lines[1], lines[len(lines)-1])
	}
}

func TestTelemetryNilSafety(t *testing.T) {
	var tel *Telemetry
	if tel.Enabled() {
		t.Error("nil Telemetry enabled")
	}
	if tel.Rec() != nil {
		t.Error("nil Telemetry returned a recorder")
	}
	if tel.Reg() != nil {
		t.Error("nil Telemetry returned a registry")
	}
	// And a recorder obtained through a nil hub must itself be nil-safe.
	tel.Rec().Record(0, "x", 0, 0)
	tel.Rec().Process("p").Thread("t").Instant(0, "x", "c", nil)
}
