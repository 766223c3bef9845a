package ha

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/runstate"
)

// CheckpointMagic heads every checkpoint file: a schema line naming the
// format version, followed by the snapshot's digest, then the canonical
// snapshot bytes. The header makes a checkpoint self-verifying on disk the
// same way the run journal's framing does: a torn or bit-rotted file is
// rejected at load instead of restoring half a switch.
const CheckpointMagic = "adcp-ckpt/1"

// WriteCheckpoint persists an encoded snapshot to path, atomically
// (temp file + rename): a crash mid-write leaves the previous checkpoint
// intact, never a truncated one.
func WriteCheckpoint(path string, snap []byte) error {
	return runstate.AtomicWrite(path, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "%s %s\n", CheckpointMagic, runstate.Digest(snap)); err != nil {
			return err
		}
		_, err := w.Write(snap)
		return err
	})
}

// ReadCheckpoint loads and verifies a checkpoint file, returning the
// snapshot bytes. The digest in the header must match the payload.
func ReadCheckpoint(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := parseCheckpoint(b)
	if err != nil {
		return nil, fmt.Errorf("ha: %s: %w", path, err)
	}
	return snap, nil
}

// parseCheckpoint is ReadCheckpoint past the file system: it verifies a
// checkpoint file's bytes and returns the snapshot they carry, a slice of b.
func parseCheckpoint(b []byte) ([]byte, error) {
	header, snap, ok := bytes.Cut(b, []byte("\n"))
	fields := strings.Fields(string(header))
	switch {
	case !ok:
		return nil, errors.New("not a checkpoint file (no header line)")
	case len(fields) != 2 || fields[0] != CheckpointMagic:
		return nil, fmt.Errorf("not a %s checkpoint", CheckpointMagic)
	case runstate.Digest(snap) != fields[1]:
		return nil, errors.New("checkpoint digest mismatch (torn write or bit rot)")
	}
	return snap, nil
}

// SaveCheckpoint captures a quiescent switch's state and persists it to
// path. Long single runs use it (netsim.Config.CheckpointPath) so their
// end state survives the process.
func SaveCheckpoint(path string, sw *core.Switch) error {
	snap, err := Capture(sw)
	if err != nil {
		return err
	}
	return WriteCheckpoint(path, snap)
}

// LoadCheckpoint reads, verifies, and restores a checkpoint into a
// quiescent switch whose geometry matches the snapshot's.
func LoadCheckpoint(path string, sw *core.Switch) error {
	snap, err := ReadCheckpoint(path)
	if err != nil {
		return err
	}
	return Restore(sw, snap)
}
