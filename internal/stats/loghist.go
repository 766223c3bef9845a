package stats

import (
	"cmp"
	"math"
	"slices"
)

// logHistSubBuckets is the number of linear sub-buckets per power-of-two
// octave. 32 sub-buckets bound the relative width of any bucket by 1/32,
// so reporting the arithmetic midpoint of a bucket is within 1/64 ≈ 1.6%
// of any value stored in it — comfortably inside the ≤5% error budget the
// telemetry layer promises for quantiles.
const logHistSubBuckets = 32

// LogHist is a bounded-memory, log-bucketed histogram (HDR-style): values
// map in O(1) to one of a fixed family of buckets whose width grows
// geometrically, so memory is O(distinct buckets) — a few hundred entries
// for any latency range — instead of O(observations). Quantiles are
// approximate with relative error ≤ 1/(2·logHistSubBuckets); count, sum,
// mean, min, and max are exact. Two LogHists merge bucket-by-bucket.
//
// Live buckets are one slice of (id, count) pairs sorted by id: 16 bytes a
// bucket, no map, and already in the order State exports and Quantile
// walks.
//
// The zero value is ready to use. LogHist is not safe for concurrent use;
// wrap it (as internal/telemetry does) when observed from registry paths.
type LogHist struct {
	buckets []LogHistBucket // ascending by id; see bucketOf
	zero    uint64          // exact-zero observations
	neg     uint64          // count in negative (odd-id) buckets
	n       uint64
	sum     float64
	sumSq   float64
	min     float64
	max     float64
}

// bucketOf maps a non-zero value to its bucket key. The magnitude's
// log-linear bucket id (which is negative for |v| < 0.5, since frexp
// exponents go negative) occupies the high bits; the sign of v is the low
// bit, so positive and negative values can never alias.
func bucketOf(v float64) int32 {
	neg := v < 0
	if neg {
		v = -v
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	sub := int32((frac - 0.5) * (2 * logHistSubBuckets))
	if sub >= logHistSubBuckets { // guard against rounding at frac→1
		sub = logHistSubBuckets - 1
	}
	id := int32(exp)*logHistSubBuckets + sub
	key := id << 1
	if neg {
		key |= 1
	}
	return key
}

// bucketMid returns the representative (arithmetic midpoint) of a bucket.
func bucketMid(key int32) float64 {
	neg := key&1 == 1
	id := key >> 1 // arithmetic shift: floors, recovering negative ids
	exp := id / logHistSubBuckets
	sub := id % logHistSubBuckets
	if sub < 0 { // Go truncates toward zero; we need floor semantics
		exp--
		sub += logHistSubBuckets
	}
	lo := math.Ldexp(1+float64(sub)/logHistSubBuckets, int(exp)-1)
	hi := math.Ldexp(1+float64(sub+1)/logHistSubBuckets, int(exp)-1)
	mid := (lo + hi) / 2
	if neg {
		return -mid
	}
	return mid
}

// Observe records one value in O(1).
func (h *LogHist) Observe(v float64) {
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.sumSq += v * v
	if v == 0 {
		h.zero++
		return
	}
	if v < 0 {
		h.neg++
	}
	*h.count(bucketOf(v))++
}

// count returns bucket id's count, inserting the bucket, empty, where it
// belongs when h has none.
func (h *LogHist) count(id int32) *uint64 {
	i, ok := slices.BinarySearchFunc(h.buckets, id, func(b LogHistBucket, id int32) int { return cmp.Compare(b.ID, id) })
	if !ok {
		h.buckets = slices.Insert(h.buckets, i, LogHistBucket{ID: id})
	}
	return &h.buckets[i].Count
}

// Count returns the number of observations.
func (h *LogHist) Count() int { return int(h.n) }

// Sum returns the exact sum of all observations.
func (h *LogHist) Sum() float64 { return h.sum }

// Mean returns the exact arithmetic mean, or 0 with no observations.
func (h *LogHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the exact smallest observation, or 0 with no observations.
func (h *LogHist) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observation, or 0 with no observations.
func (h *LogHist) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Stddev returns the population standard deviation (exact up to float
// accumulation error).
func (h *LogHist) Stddev() float64 {
	if h.n == 0 {
		return 0
	}
	mean := h.Mean()
	v := h.sumSq/float64(h.n) - mean*mean
	if v < 0 { // float cancellation on near-constant data
		v = 0
	}
	return math.Sqrt(v)
}

// Buckets returns the number of live buckets — the memory footprint.
func (h *LogHist) Buckets() int {
	n := len(h.buckets)
	if h.zero > 0 {
		n++
	}
	return n
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank over the
// buckets. The result is the midpoint of the bucket holding the rank,
// clamped to the exact observed [Min, Max]; relative error is bounded by
// half a bucket width (≤ 1/(2·logHistSubBuckets) ≈ 1.6%).
func (h *LogHist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	// Ascending value order: negatives (odd ids, a larger id a larger
	// magnitude) from the highest id down, zero, then positives (even ids)
	// from the lowest up. A rank past every negative skips their walk.
	var cum uint64
	v := h.max
	found := false
	if rank > h.neg {
		cum = h.neg
	}
	for i := len(h.buckets) - 1; i >= 0 && !found && rank <= h.neg; i-- {
		if b := h.buckets[i]; b.ID&1 == 1 {
			if cum += b.Count; cum >= rank {
				v, found = bucketMid(b.ID), true
			}
		}
	}
	if !found {
		cum += h.zero
		if h.zero > 0 && cum >= rank {
			v, found = 0, true
		}
	}
	for i := 0; i < len(h.buckets) && !found; i++ {
		if b := h.buckets[i]; b.ID&1 == 0 {
			if cum += b.Count; cum >= rank {
				v, found = bucketMid(b.ID), true
			}
		}
	}
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// Merge folds o into h bucket-by-bucket. Both histograms use the same
// fixed bucket family, so merging loses no resolution.
func (h *LogHist) Merge(o *LogHist) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	h.sumSq += o.sumSq
	h.zero += o.zero
	h.neg += o.neg
	for _, b := range o.buckets {
		*h.count(b.ID) += b.Count
	}
}

// Reset returns the histogram to its zero state, keeping allocated buckets.
func (h *LogHist) Reset() {
	h.buckets = h.buckets[:0]
	h.zero, h.neg, h.n, h.sum, h.sumSq, h.min, h.max = 0, 0, 0, 0, 0, 0, 0
}
