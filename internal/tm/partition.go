package tm

import "repro/internal/mat"

// HashPartitioner decides which central pipeline a data element lands on —
// the application-defined criterion the first ADCP TM applies (paper §3.1:
// "reshuffle data, for instance, by ranges or hashes over a given data
// element on each packet") — by spreading keys uniformly by hash.
type HashPartitioner struct {
	n int
}

// NewHashPartitioner partitions across n pipelines.
func NewHashPartitioner(n int) *HashPartitioner {
	if n <= 0 {
		panic("tm: hash partitioner over 0 pipelines")
	}
	return &HashPartitioner{n: n}
}

// Place maps a key onto a pipeline index in [0, n).
func (h *HashPartitioner) Place(key uint64) int { return mat.HashToBucket(key, h.n) }
