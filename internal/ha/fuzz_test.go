package ha_test

import (
	"bytes"
	"testing"

	"repro/internal/ha"
)

// fuzzSnapSeeds returns the seed corpus: a real captured snapshot, a few
// structured mutations of it, and degenerate inputs. Run as regression
// tests over the corpus; extend with `go test -fuzz=FuzzSnapshotDecode
// ./internal/ha/`.
func fuzzSnapSeeds(t testing.TB) [][]byte {
	snap, err := ha.Capture(drivenSwitch(t))
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{snap, nil, {0}, snap[:8], snap[:len(snap)/2]}
	for _, off := range []int{0, 6, 14, len(snap) / 3, len(snap) - 1} {
		m := append([]byte(nil), snap...)
		m[off] ^= 0x41
		seeds = append(seeds, m)
	}
	seeds = append(seeds, append(append([]byte(nil), snap...), 0xAA))
	return seeds
}

// FuzzSnapshotDecode asserts the codec's canonicity invariant: any byte
// string the decoder accepts re-encodes to exactly those bytes. Together
// with Capture = Encode∘Export, this is what makes snapshot byte equality
// a valid replica-state comparison.
func FuzzSnapshotDecode(f *testing.F) {
	for _, s := range fuzzSnapSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, fp, err := ha.DecodeState(data)
		if err != nil {
			return
		}
		re := ha.EncodeState(st, fp)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %d bytes re-encoded to %d different bytes", len(data), len(re))
		}
	})
}
