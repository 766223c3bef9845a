package pipeline

import "fmt"

// Tracing: a pipeline can surface per-packet region events to an observer.
// Tracing is off by default and costs one nil check per event when off. An
// observer that asks for every event sends the traversal down a per-stage
// loop that reports each stage; one that asks only for traversals hears
// EvDone, once per traversal, and the traversal keeps the flat loop.

// EventKind classifies trace events.
type EventKind int

// Event kinds.
const (
	EvParsed EventKind = iota
	EvStage
	EvDeparsed
	EvDone
)

// String returns the kind mnemonic.
func (k EventKind) String() string {
	switch k {
	case EvParsed:
		return "parsed"
	case EvStage:
		return "stage"
	case EvDeparsed:
		return "deparsed"
	case EvDone:
		return "done"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one step of a packet's traversal.
type Event struct {
	Kind EventKind
	// Stage is the stage index for EvStage (-1 otherwise).
	Stage int
	// Cycles is the traversal's cumulative cycle count at this point.
	Cycles int
	// Verdict is the packet's verdict at this point.
	Verdict Verdict
}

// String renders the event.
func (e Event) String() string {
	if e.Kind == EvStage {
		return fmt.Sprintf("stage %d @%dcyc (%v)", e.Stage, e.Cycles, e.Verdict)
	}
	return fmt.Sprintf("%v @%dcyc (%v)", e.Kind, e.Cycles, e.Verdict)
}

// Observer receives trace events.
type Observer func(ev Event)

// SetObserver installs (or clears, with nil) the pipeline's tracer, which
// receives every event: parsed, each stage, deparsed and done.
func (p *Pipeline) SetObserver(obs Observer) { p.observer, p.observeStages = obs, true }

// SetTraversalObserver installs (or clears, with nil) a tracer that
// receives only EvDone, carrying the traversal's cycles and verdict exactly
// as SetObserver's would.
func (p *Pipeline) SetTraversalObserver(obs Observer) { p.observer, p.observeStages = obs, false }

// Recorder is an Observer that accumulates events.
type Recorder struct {
	Events []Event
}

// Observe implements Observer.
func (r *Recorder) Observe(ev Event) { r.Events = append(r.Events, ev) }

// Stages returns the visited stage indexes in order.
func (r *Recorder) Stages() []int {
	var out []int
	for _, e := range r.Events {
		if e.Kind == EvStage {
			out = append(out, e.Stage)
		}
	}
	return out
}

// Reset clears recorded events.
func (r *Recorder) Reset() { r.Events = nil }
