package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestLogHistEmpty(t *testing.T) {
	var h LogHist
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 ||
		h.Quantile(0.5) != 0 || h.Stddev() != 0 || h.Buckets() != 0 {
		t.Fatal("zero LogHist must report zeros everywhere")
	}
}

func TestLogHistExactStats(t *testing.T) {
	var h LogHist
	vals := []float64{5, 1, 4, 2, 3, 0, -2.5}
	var sum float64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != len(vals) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(vals))
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %g, want %g", h.Sum(), sum)
	}
	if h.Min() != -2.5 || h.Max() != 5 {
		t.Fatalf("Min/Max = %g/%g, want -2.5/5", h.Min(), h.Max())
	}
	if got, want := h.Mean(), sum/float64(len(vals)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean = %g, want %g", got, want)
	}
	// Extremes are exact regardless of bucketing.
	if h.Quantile(0) != -2.5 || h.Quantile(1) != 5 {
		t.Fatalf("Quantile extremes = %g/%g", h.Quantile(0), h.Quantile(1))
	}
}

// Quantiles must track the exact Histogram within the documented relative
// error bound on random data spanning several orders of magnitude.
func TestLogHistQuantileErrorVsExact(t *testing.T) {
	const tol = 0.05 // acceptance bound; actual design bound is ~1.6%
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		var exact Histogram
		var lh LogHist
		n := 1000 + rng.Intn(9000)
		for i := 0; i < n; i++ {
			// Log-uniform over [1e-3, 1e6): the regime of latencies in ps.
			v := math.Pow(10, rng.Float64()*9-3)
			exact.Observe(v)
			lh.Observe(v)
		}
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
			want := exact.Quantile(q)
			got := lh.Quantile(q)
			if rel := math.Abs(got-want) / want; rel > tol {
				t.Errorf("trial %d q=%g: LogHist=%g exact=%g rel err %.3f > %g",
					trial, q, got, want, rel, tol)
			}
		}
	}
}

// Memory must stay O(buckets) no matter how many observations arrive.
func TestLogHistBoundedMemory(t *testing.T) {
	var h LogHist
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		h.Observe(math.Pow(10, rng.Float64()*6)) // [1, 1e6)
	}
	if h.Count() != 200000 {
		t.Fatalf("Count = %d", h.Count())
	}
	// 6 decades ≈ 20 octaves × 32 sub-buckets = 640 possible buckets.
	if b := h.Buckets(); b > 700 {
		t.Fatalf("Buckets = %d, want O(hundreds) independent of 200k observations", b)
	}
}

func TestLogHistMerge(t *testing.T) {
	var a, b, whole LogHist
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		v := rng.ExpFloat64() * 1000
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), whole.Count())
	}
	// Sums differ only by float addition order.
	if math.Abs(a.Sum()-whole.Sum()) > 1e-9*math.Abs(whole.Sum()) {
		t.Fatalf("merged sum = %g, want %g", a.Sum(), whole.Sum())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged min/max = %g/%g, want %g/%g", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q=%g: merged %g != whole %g (merge must be lossless)", q, got, want)
		}
	}
	// Merging into an empty histogram copies o.
	var c LogHist
	c.Merge(&whole)
	if c.Count() != whole.Count() || c.Quantile(0.5) != whole.Quantile(0.5) {
		t.Error("merge into empty lost data")
	}
}

func TestLogHistNegativeAndZero(t *testing.T) {
	var h LogHist
	for _, v := range []float64{-100, -10, -1, 0, 0, 1, 10, 100} {
		h.Observe(v)
	}
	// Median of 8 values (nearest rank 4) is the second zero → 0.
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("median = %g, want 0", got)
	}
	if got := h.Quantile(0.125); math.Abs(got-(-100))/100 > 0.05 {
		t.Fatalf("q0.125 = %g, want ≈ -100", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("q1 = %g, want 100", got)
	}
}

func TestLogHistReset(t *testing.T) {
	var h LogHist
	h.Observe(5)
	h.Observe(-5)
	h.Observe(0)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Buckets() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("Reset did not clear state")
	}
	h.Observe(3)
	if h.Quantile(0.5) != 3 {
		t.Fatalf("post-reset median = %g, want 3", h.Quantile(0.5))
	}
}

// Stddev must agree with the exact histogram (both are moment-based).
func TestLogHistStddev(t *testing.T) {
	var h LogHist
	var e Histogram
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
		e.Observe(v)
	}
	if got, want := h.Stddev(), e.Stddev(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Stddev = %g, want %g", got, want)
	}
}

// refLogHist is the map-backed LogHist the slice-backed one replaced, kept
// as FuzzLogHist's reference: buckets in a map, quantiles over ids sorted
// by their representative value.
type refLogHist struct {
	counts               map[int32]uint64
	zero, n              uint64
	sum, sumSq, min, max float64
}

func (h *refLogHist) Observe(v float64) {
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
	if h.counts == nil {
		h.counts = make(map[int32]uint64)
	}
	h.counts[bucketOf(v)]++
}

func (h *refLogHist) Merge(o *refLogHist) {
	if o.n == 0 {
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
	if h.counts == nil {
		h.counts = make(map[int32]uint64)
	}
	for id, c := range o.counts {
		h.counts[id] += c
	}
}

func (h *refLogHist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := max(uint64(math.Ceil(q*float64(h.n))), 1)
	ids := make([]int32, 0, len(h.counts))
	for id := range h.counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return bucketMid(ids[i]) < bucketMid(ids[j]) })
	var cum uint64
	v, found, i := h.max, false, 0
	for ; i < len(ids) && bucketMid(ids[i]) < 0 && !found; i++ {
		if cum += h.counts[ids[i]]; cum >= rank {
			v, found = bucketMid(ids[i]), true
		}
	}
	if cum += h.zero; !found && h.zero > 0 && cum >= rank {
		v, found = 0, true
	}
	for ; i < len(ids) && !found; i++ {
		if cum += h.counts[ids[i]]; cum >= rank {
			v, found = bucketMid(ids[i]), true
		}
	}
	return min(max(v, h.min), h.max)
}

func (h *refLogHist) State() LogHistState {
	s := LogHistState{Zero: h.zero, N: h.n, Sum: h.sum, SumSq: h.sumSq, Min: h.min, Max: h.max}
	for id, c := range h.counts {
		s.Buckets = append(s.Buckets, LogHistBucket{ID: id, Count: c})
	}
	sort.Slice(s.Buckets, func(i, j int) bool { return s.Buckets[i].ID < s.Buckets[j].ID })
	return s
}

func (h *refLogHist) RestoreState(s LogHistState) {
	*h = refLogHist{zero: s.Zero, n: s.N, sum: s.Sum, sumSq: s.SumSq, min: s.Min, max: s.Max}
	for _, b := range s.Buckets {
		if h.counts == nil {
			h.counts = make(map[int32]uint64)
		}
		h.counts[b.ID] = b.Count
	}
}

// FuzzLogHist holds two slice-backed histograms to two map-backed
// references through a stream of operations: Observe (zeros, negatives,
// magnitudes from subnormal to huge), Merge either way, a Reset, and a
// State/RestoreState round trip, including a restore from a state whose
// buckets are out of order and repeated. After every step both pairs must
// agree on State, bucket count and a ladder of quantiles.
func FuzzLogHist(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 0, 0, 0, 0, 0, 0, 0, 0xc0, 2})
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var got [2]LogHist
		var want [2]refLogHist
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			a := op >> 7 // which histogram the step acts on
			switch op % 6 {
			case 0, 1: // observe the next 8 bytes as a float
				var bits [8]byte
				ops = ops[copy(bits[:], ops):]
				u := binary.LittleEndian.Uint64(bits[:])
				v := math.Float64frombits(u)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = -float64(int64(u) >> 40)
				}
				if op%6 == 1 {
					v = 0
				}
				got[a].Observe(v)
				want[a].Observe(v)
			case 2:
				got[a].Merge(&got[1-a])
				want[a].Merge(&want[1-a])
			case 3:
				got[a].Reset()
				want[a] = refLogHist{}
			case 4:
				got[a].RestoreState(got[1-a].State())
				want[a].RestoreState(want[1-a].State())
			case 5: // a state decoded from elsewhere: reversed, one bucket twice
				s := want[1-a].State()
				slices.Reverse(s.Buckets)
				if len(s.Buckets) > 0 {
					s.Buckets = append(s.Buckets, LogHistBucket{ID: s.Buckets[0].ID, Count: uint64(op)})
				}
				got[a].RestoreState(s)
				want[a].RestoreState(s)
			}
			for i := range got {
				if g, w := got[i].State(), want[i].State(); !reflect.DeepEqual(g, w) {
					t.Fatalf("histogram %d: state %+v, reference %+v", i, g, w)
				}
				if g, w := got[i].Buckets(), len(want[i].counts)+min(int(want[i].zero), 1); g != w {
					t.Fatalf("histogram %d: %d buckets, reference %d", i, g, w)
				}
				for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
					if g, w := got[i].Quantile(q), want[i].Quantile(q); g != w {
						t.Fatalf("histogram %d: q%g = %g, reference %g", i, q, g, w)
					}
				}
			}
		}
	})
}
