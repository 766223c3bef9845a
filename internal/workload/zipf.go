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
type Zipf struct {
	rng *sim.RNG
	cdf []float64
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
	return &Zipf{rng: rng, cdf: cdf}, nil
}

// Sample returns the next key: rank i has probability ∝ 1/(i+1)^s.
func (z *Zipf) Sample() uint32 {
	u := z.rng.Float64()
	return uint32(sort.SearchFloat64s(z.cdf, u))
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
