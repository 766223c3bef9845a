package ha_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ha"
	"repro/internal/runstate"
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

// FuzzReadCheckpoint feeds the checkpoint parser what a crash or a bad disk
// leaves behind — a real file, torn prefixes of it, flipped header and
// payload bytes — and whatever the fuzzer makes of those. The parser must
// never panic; anything it accepts must carry the payload its header's
// digest names; and the snapshot decoder, which LoadCheckpoint hands that
// payload to next, must not panic on it either.
func FuzzReadCheckpoint(f *testing.F) {
	path := filepath.Join(f.TempDir(), "sw.ckpt")
	if err := ha.SaveCheckpoint(path, drivenSwitch(f)); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	nl := bytes.IndexByte(file, '\n')
	f.Add(file)
	for _, n := range []int{0, 5, len(ha.CheckpointMagic) + 1, nl, nl + 1, nl + 9, len(file) / 2, len(file) - 1} {
		f.Add(file[:n])
	}
	for _, off := range []int{0, len(ha.CheckpointMagic), nl - 1, nl, nl + 1, nl + 15, len(file) - 1} {
		m := append([]byte(nil), file...)
		m[off] ^= 0x41
		f.Add(m)
	}
	// A header that vouches for a payload which is no snapshot.
	junk := []byte("not a snapshot")
	f.Add(append([]byte(ha.CheckpointMagic+" "+runstate.Digest(junk)+"\n"), junk...))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ha.ParseCheckpoint(data)
		if err != nil {
			return
		}
		header, _, _ := bytes.Cut(data, []byte("\n"))
		if h := strings.Fields(string(header)); len(h) != 2 || h[0] != ha.CheckpointMagic || h[1] != runstate.Digest(snap) {
			t.Fatalf("accepted a checkpoint whose header %q does not name its payload's digest %s", header, runstate.Digest(snap))
		}
		ha.DecodeState(snap)
	})
}
