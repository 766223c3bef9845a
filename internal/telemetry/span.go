package telemetry

import "repro/internal/sim"

// This file is the causal-span layer: sim-time spans with parent/child
// lineage (coflow → packet → wire/queue/pipeline/... segments) recorded
// through a Track's span methods, plus the Chain accountant that carves a
// packet's life into named buckets for critical-path CCT attribution.
//
// The design constraint is exactness: for the packet whose delivery closes
// a coflow, the bucket durations must sum to the measured CCT to the
// picosecond. Chain guarantees that by construction — it is a cursor that
// only moves forward, and every Advance attributes the whole interval
// [cursor, to] to one bucket, so the buckets tile [Start, final cursor]
// with no gaps and no overlaps.

// Bucket names one cause of elapsed simulated time on a packet's causal
// chain. The order is the presentation order of attribution output.
type Bucket uint8

// Attribution buckets. BucketSource is the residual between the coflow's
// first send and the winning packet's own chain start (time the coflow
// spent before its critical packet existed); the others are measured
// directly on the chain.
const (
	BucketSource Bucket = iota
	BucketSerialization
	BucketPropagation
	BucketQueueing
	BucketPipeline
	BucketRecirculation
	BucketRetx
	BucketFailoverStall
	NumBuckets // sentinel: bucket count, not a bucket
)

// bucketNames holds the stable external names; the _ps suffix is added by
// SeriesName because every bucket is a picosecond duration.
var bucketNames = [NumBuckets]string{
	"source",
	"serialization",
	"propagation",
	"queueing",
	"pipeline",
	"recirculation",
	"retx",
	"failover_stall",
}

// String returns the bucket's stable external name.
func (b Bucket) String() string {
	if b >= NumBuckets {
		return "invalid"
	}
	return bucketNames[b]
}

// AttrSeriesPrefix prefixes every per-coflow attribution series.
const AttrSeriesPrefix = "cct.attr."

// SeriesName returns the registry series name carrying this bucket's
// per-coflow attribution, e.g. "cct.attr.recirculation_ps".
func (b Bucket) SeriesName() string { return AttrSeriesPrefix + b.String() + "_ps" }

// Breakdown is a per-bucket duration vector. The zero value is empty.
type Breakdown [NumBuckets]sim.Time

// Add accumulates d into bucket b.
func (bd *Breakdown) Add(b Bucket, d sim.Time) { bd[b] += d }

// Get returns bucket b's accumulated duration.
func (bd Breakdown) Get(b Bucket) sim.Time { return bd[b] }

// Sum returns the total across all buckets.
func (bd Breakdown) Sum() sim.Time {
	var s sim.Time
	for _, v := range bd {
		s += v
	}
	return s
}

// SpanID identifies one span within a trace process; 0 means "no span"
// (used as the parent of root spans).
type SpanID uint64

// Chain is the causal account of one packet: a monotonic time cursor plus
// a per-bucket breakdown. Advance(to, b) charges the interval from the
// cursor to `to` to bucket b and moves the cursor; calls with to ≤ cursor
// are no-ops, so out-of-order bookkeeping from stale timers (e.g. a
// spurious retransmit racing a delivered original) can never corrupt an
// account, only lose the race. Fork snapshots the account where a packet
// causally splits (multicast outputs, switch handoff), giving each branch
// an independent cursor; the branch that ultimately closes the coflow
// carries the full history of its causal past.
//
// All methods are nil-safe so instrumented paths pay one nil check when
// attribution is off.
type Chain struct {
	start  sim.Time
	cursor sim.Time
	bd     Breakdown

	tr     *Track // nil unless spans are exported
	span   SpanID
	parent SpanID
	coflow uint32
}

// NewChain opens a chain for a packet of the given coflow starting at
// `at`. tr may be nil (attribution without span events); parent is the
// enclosing coflow span (0 when untraced).
func NewChain(at sim.Time, coflow uint32, tr *Track, parent SpanID) *Chain {
	return new(Chain).Open(at, coflow, tr, parent)
}

// Open is NewChain into c, which it overwrites and returns.
func (c *Chain) Open(at sim.Time, coflow uint32, tr *Track, parent SpanID) *Chain {
	*c = Chain{start: at, cursor: at, tr: tr, parent: parent, coflow: coflow}
	if tr != nil {
		c.span = tr.NewSpan()
		tr.SpanMark(at, "packet", c.span, parent, coflow)
	}
	return c
}

// Start returns the chain's opening time.
func (c *Chain) Start() sim.Time {
	if c == nil {
		return 0
	}
	return c.start
}

// Cursor returns the time accounted up to so far.
func (c *Chain) Cursor() sim.Time {
	if c == nil {
		return 0
	}
	return c.cursor
}

// Breakdown returns the account so far.
func (c *Chain) Breakdown() Breakdown {
	if c == nil {
		return Breakdown{}
	}
	return c.bd
}

// Advance charges [cursor, to] to bucket b and moves the cursor to `to`.
// No-op when c is nil or to ≤ cursor.
func (c *Chain) Advance(to sim.Time, b Bucket) {
	if c == nil || to <= c.cursor {
		return
	}
	d := to - c.cursor
	c.bd[b] += d
	if c.tr != nil {
		c.tr.Span(c.cursor, d, b.String(), c.span, c.parent, c.coflow)
	}
	c.cursor = to
}

// Fork returns an independent copy of the account at the current cursor.
// When span tracing is on the copy becomes a child span of c's span.
func (c *Chain) Fork() *Chain {
	if c == nil {
		return nil
	}
	return c.ForkTo(new(Chain))
}

// ForkTo is Fork into n, which it overwrites and returns (nil, n untouched,
// when c is nil).
func (c *Chain) ForkTo(n *Chain) *Chain {
	if c == nil {
		return nil
	}
	*n = *c
	if c.tr != nil {
		n.span = c.tr.NewSpan()
		n.parent = c.span
		c.tr.SpanMark(c.cursor, "packet", n.span, n.parent, c.coflow)
	}
	return n
}
