package runstate

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplayFrames feeds arbitrary bytes to the one decoder every durable
// file in the repository is read back through. Whatever the input:
// replay must not panic; the committed length it reports must lie inside
// the data; replaying exactly that prefix must yield the same bodies with
// no torn tail (so truncating to it is a fixed point); and OpenLog must
// leave exactly that prefix on disk. The seeds are a real run journal and
// a real job journal (testdata/, written by adcpsim), whole and torn.
func FuzzReplayFrames(f *testing.F) {
	for _, name := range []string{"run-journal.jsonl", "job-journal.jsonl"} {
		seed, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)-len(seed)/7])
	}
	f.Add([]byte("2 00000000 {}\n"))
	f.Add([]byte("-1 0 \n\n"))
	dir := f.TempDir() // one per fuzz worker process; executions are serial within it
	f.Fuzz(func(t *testing.T, data []byte) {
		bodies, committed, torn, err := replayFrames(data)
		if err != nil {
			if bodies != nil || committed != 0 || torn {
				t.Fatalf("corrupt input returned bodies=%d committed=%d torn=%v beside the error", len(bodies), committed, torn)
			}
			if _, _, _, oerr := OpenLog(writeFuzzLog(t, dir, data)); oerr == nil {
				t.Fatal("OpenLog accepted a log replay calls corrupt")
			}
			return
		}
		if committed < 0 || committed > len(data) {
			t.Fatalf("committed %d outside [0, %d]", committed, len(data))
		}
		if torn == (committed == len(data)) {
			t.Fatalf("torn=%v with %d of %d bytes committed", torn, committed, len(data))
		}
		again, committed2, torn2, err := replayFrames(data[:committed])
		if err != nil || torn2 || committed2 != committed || len(again) != len(bodies) {
			t.Fatalf("replay of the committed prefix: %d bodies committed=%d torn=%v err=%v; want %d, %d, false, nil",
				len(again), committed2, torn2, err, len(bodies), committed)
		}
		for i := range bodies {
			if !bytes.Equal(again[i], bodies[i]) {
				t.Fatalf("body %d differs on the committed prefix", i)
			}
		}

		path := writeFuzzLog(t, dir, data)
		l, opened, otorn, err := OpenLog(path)
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		l.Close()
		if otorn != torn || len(opened) != len(bodies) {
			t.Fatalf("OpenLog replayed %d bodies torn=%v, replayFrames %d torn=%v", len(opened), otorn, len(bodies), torn)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, data[:committed]) {
			t.Fatalf("OpenLog left %d bytes on disk, want the %d-byte committed prefix", len(onDisk), committed)
		}
	})
}

func writeFuzzLog(t *testing.T, dir string, data []byte) string {
	path := filepath.Join(dir, "fuzz.jsonl")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}
