package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Zipf draws keys from a bounded Zipf(s) distribution via a precomputed
// inverse CDF — the standard skew model for cache workloads (NetCache
// evaluates under Zipf 0.9–1.2). Deterministic for a given RNG.
//
// A draw u is inverted with a cut-point guide table (Chen & Asau): guide[j]
// is the first rank whose cumulative probability reaches j/n, so the rank
// of a u in [j/n, (j+1)/n) lies between guide[j] and guide[j+1] and is
// found by a search of that span alone — a rank or two for the head, a few
// for the tail — instead of the whole CDF. The result is exactly
// sort.SearchFloat64s(cdf, u).
type Zipf struct {
	rng   *sim.RNG
	cdf   []float64
	guide []int32 // len(cdf)+1 cut points
}

// NewZipf builds a sampler over keys [0, n) with skew s ≥ 0 (s = 0 is
// uniform; s ≈ 1 is the classic web/cache skew).
func NewZipf(rng *sim.RNG, s float64, n int) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf over %d keys", n)
	}
	if s < 0 {
		return nil, fmt.Errorf("workload: negative skew %v", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	guide, i := make([]int32, n+1), 0
	for j := range guide {
		for x := float64(j) / float64(n); i < n && cdf[i] < x; {
			i++
		}
		guide[j] = int32(i)
	}
	return &Zipf{rng: rng, cdf: cdf, guide: guide}, nil
}

// Sample returns the next key: rank i has probability ∝ 1/(i+1)^s.
func (z *Zipf) Sample() uint32 {
	return uint32(z.rank(z.rng.Float64()))
}

// rank returns the first rank whose cumulative probability reaches u, as
// sort.SearchFloat64s(z.cdf, u) does. Should rounding put u outside the
// span its cut points bracket, the whole CDF is searched.
func (z *Zipf) rank(u float64) int {
	n := len(z.cdf)
	j := min(max(int(u*float64(n)), 0), n-1)
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	if lo > 0 && z.cdf[lo-1] >= u || hi < n && z.cdf[hi] < u {
		return sort.SearchFloat64s(z.cdf, u)
	}
	return lo + sort.SearchFloat64s(z.cdf[lo:hi], u)
}

// KVZipf generates the KV workload with Zipf-skewed keys instead of
// uniform ones. The skewed head is what makes small on-switch caches
// effective (the NetCache argument): a few hot keys absorb most GETs.
func KVZipf(p KVParams, skew float64) ([]Injection, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(p.Seed)
	z, err := NewZipf(rng, skew, int(p.KeySpace))
	if err != nil {
		return nil, err
	}
	injs, err := KV(p) // reuse structure: same packet count and shape
	if err != nil {
		return nil, err
	}
	// Rewrite the keys in place with Zipf draws (values untouched).
	for _, inj := range injs {
		data := inj.Pkt.Data
		// Pairs start after base header + KV fixed header; each pair is
		// key(4) + value(4).
		for off := packet.BaseHeaderLen + packet.KVHeaderFixedLen; off+8 <= len(data); off += 8 {
			binary.BigEndian.PutUint32(data[off:], z.Sample())
		}
	}
	return injs, nil
}
