package runstate

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// logRec is deliberately not a run-journal Record: its "spec" is an
// object where Record's is a string, as in the daemon's submit records. A
// log must commit such bodies exactly as it commits the run journal's.
type logRec struct {
	N    int            `json:"n"`
	S    string         `json:"s"`
	Spec map[string]int `json:"spec,omitempty"`
}

func TestLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, bodies, torn, err := OpenLog(path)
	if err != nil {
		t.Fatalf("OpenLog fresh: %v", err)
	}
	if len(bodies) != 0 || torn {
		t.Fatalf("fresh log replayed %d bodies, torn=%v", len(bodies), torn)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(logRec{N: i, S: "rec"}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append(logRec{}); err == nil {
		t.Fatal("Append after Close succeeded")
	}

	_, bodies, torn, err = OpenLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if torn || len(bodies) != 5 {
		t.Fatalf("reopen: %d bodies, torn=%v; want 5, false", len(bodies), torn)
	}
}

// TestLogKillAtEveryByteOffset is the generic-log version of the journal
// crash test: a log truncated at ANY byte offset must reopen to exactly
// its committed prefix — on disk as well as in the replay — and take
// appends from there. It must never error, invent records, or (the PR 9
// bug: a 239-byte job journal truncated to its 47-byte header) cut
// committed records off the file because of what their bodies hold.
func TestLogKillAtEveryByteOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	l, _, _, err := OpenLog(full)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var ends []int // ends[i] = file length once record i committed
	for i := 0; i < n; i++ {
		if err := l.Append(logRec{N: i, S: "payload-with-some-width", Spec: map[string]int{"exps": i}}); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(full)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(st.Size()))
	}
	l.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cut.jsonl")
	for cut := 0; cut <= len(data); cut++ {
		wantRecs, wantLen := 0, 0
		for wantRecs < n && ends[wantRecs] <= cut {
			wantLen = ends[wantRecs]
			wantRecs++
		}
		if err := os.WriteFile(path, data[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		l2, bodies, torn, err := OpenLog(path)
		if err != nil {
			t.Fatalf("cut at %d/%d: OpenLog: %v", cut, len(data), err)
		}
		if len(bodies) != wantRecs || torn != (cut != wantLen) {
			t.Fatalf("cut at %d: replayed %d bodies torn=%v, want %d torn=%v", cut, len(bodies), torn, wantRecs, cut != wantLen)
		}
		if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, data[:wantLen]) {
			t.Fatalf("cut at %d: reopen left %d bytes on disk, want the %d-byte committed prefix", cut, len(onDisk), wantLen)
		}
		if err := l2.Append(logRec{N: 99, S: "after"}); err != nil {
			t.Fatalf("cut at %d: append after reopen: %v", cut, err)
		}
		l2.Close()
		l3, bodies2, torn2, err := OpenLog(path)
		if err != nil {
			t.Fatalf("cut at %d: re-reopen: %v", cut, err)
		}
		l3.Close()
		if torn2 || len(bodies2) != wantRecs+1 {
			t.Fatalf("cut at %d: second reopen replayed %d bodies torn=%v, want %d untorn", cut, len(bodies2), torn2, wantRecs+1)
		}
		for i, b := range bodies {
			if !bytes.Equal(bodies2[i], b) {
				t.Fatalf("cut at %d: record %d changed across the append: %s → %s", cut, i, b, bodies2[i])
			}
		}
		var last logRec
		if err := json.Unmarshal(bodies2[wantRecs], &last); err != nil || last.N != 99 {
			t.Fatalf("cut at %d: appended record replayed as %s (%v)", cut, bodies2[wantRecs], err)
		}
		os.Remove(path)
	}
}

func TestReplayRawRejectsMidFileDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, _, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(logRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, _ := os.ReadFile(path)
	// Flip a byte inside the FIRST record: damage that append-only crashes
	// cannot produce, so it must be corruption, not a torn tail.
	data[5] ^= 0xff
	if _, _, err := ReplayRaw(data); err == nil {
		t.Fatal("ReplayRaw accepted mid-file damage")
	}
}
