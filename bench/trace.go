package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the harness into a layer's public function.
// Spans are recorded by the harness around those calls; nothing inside the
// simulator is instrumented.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the enclosing span, -1 for a root
	Workload string `json:"workload"`
	// Calls > 0 marks an aggregate: the summed duration of that many calls
	// made inside the parent (switch.process would otherwise be one span
	// per packet), laid out from the parent's start.
	Calls uint64 `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced units run the same code.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Workload: t.workload})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
}

// aggregate records calls that together took total as one child of the
// innermost open span.
func (t *tracer) aggregate(name string, total time.Duration, calls uint64) {
	if t == nil || calls == 0 {
		return
	}
	parent := t.open[len(t.open)-1]
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(total), Parent: parent, Workload: t.workload, Calls: calls})
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover. Children of one parent never overlap each other: they
// are either sequential calls or a single aggregate.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanTotal is the duration and self time (ns) and the number of calls of
// all spans of one name.
type spanTotal struct {
	dur, self int64
	calls     uint64
}

func spanTotals(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.dur += s.End - s.Start
		t.self += self[i]
		if s.Calls > 0 {
			t.calls += s.Calls
		} else {
			t.calls++
		}
		out[s.Name] = t
	}
	return out
}

// writeTrace writes the spans as one JSON document, creating the directory.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"adcp-bench-trace/1", spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
