package runstate

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// frameRecords frames a sequence of records exactly as the journal writes
// them, for replay tests that damage the byte stream directly.
func frameRecords(t *testing.T, recs ...Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frameBody(body))
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	rec := Record{Op: OpBegin, Unit: "point:faults[3]", Spec: "rmt loss=0.01", Seed: 42, Attempt: 2}
	got, torn, err := Replay(frameRecords(t, rec))
	if err != nil || torn {
		t.Fatalf("Replay: torn=%v err=%v", torn, err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], rec) {
		t.Fatalf("round trip: got %+v, want %+v", got, rec)
	}
}

// The torn-tail contract: truncating the journal at EVERY byte offset
// inside the final record must replay cleanly — the earlier records
// survive, the torn tail is dropped, and torn is reported whenever the
// final record did not commit whole.
func TestReplayToleratesTornTailAtEveryOffset(t *testing.T) {
	head := frameRecords(t,
		Record{Op: OpRun, Config: "cfg"},
		Record{Op: OpBegin, Unit: "u", Attempt: 1},
	)
	tail := frameRecords(t, Record{Op: OpDone, Unit: "u", Digest: "d"})
	for cut := 0; cut < len(tail); cut++ {
		data := append(append([]byte(nil), head...), tail[:cut]...)
		recs, torn, err := Replay(data)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut at %d: %d records survived, want the 2 committed ones", cut, len(recs))
		}
		if cut > 0 && !torn {
			t.Fatalf("cut at %d: torn tail not reported", cut)
		}
	}
	// And the whole tail replays untorn.
	recs, torn, err := Replay(append(append([]byte(nil), head...), tail...))
	if err != nil || torn || len(recs) != 3 {
		t.Fatalf("intact journal: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
}

// Damage before the final record is corruption, not a torn tail: replay
// must refuse rather than silently dropping committed history.
func TestReplayRejectsMidFileCorruption(t *testing.T) {
	data := frameRecords(t,
		Record{Op: OpRun},
		Record{Op: OpBegin, Unit: "u", Attempt: 1},
		Record{Op: OpDone, Unit: "u", Digest: "d"},
	)
	// Flip a byte inside the first record's JSON.
	data[10] ^= 0xFF
	if _, _, err := Replay(data); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file damage replayed without a corruption error: %v", err)
	}
}

func TestOpenFreshRefusesExistingJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, OpenOptions{Config: "c"})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(dir, OpenOptions{Config: "c"}); !errors.Is(err, ErrFreshDirHasJournal) {
		t.Fatalf("second fresh open: %v, want ErrFreshDirHasJournal", err)
	}
}

func TestOpenResumeRequiresJournal(t *testing.T) {
	if _, err := Open(t.TempDir(), OpenOptions{Resume: true}); !errors.Is(err, ErrNothingToResume) {
		t.Fatalf("resume of empty dir: %v, want ErrNothingToResume", err)
	}
}

func TestOpenResumeRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, OpenOptions{Config: "cfg-a"})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(dir, OpenOptions{Config: "cfg-b", Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "configuration mismatch") {
		t.Fatalf("resume under a different config: %v, want mismatch refusal", err)
	}
}

// The unit lifecycle: begin/fail/done records fold into Status, completed
// payloads round-trip through LookupDone, and a resumed journal sees it
// all.
func TestJournalUnitLifecycleSurvivesResume(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, OpenOptions{Config: "c"})
	if err != nil {
		t.Fatal(err)
	}
	j.Begin("point:a", "spec-a", 7, 1)
	j.Fail("point:a", 1, "error", "boom")
	j.Begin("point:a", "spec-a", 7, 2)
	if err := j.Done("point:a", []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	j.Begin("point:b", "spec-b", 9, 1)
	j.Close()

	r, err := Open(dir, OpenOptions{Config: "c", Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Resumed() {
		t.Fatal("Resumed() false after a resume open")
	}
	a := r.Status("point:a")
	if !a.Done || a.Attempts != 2 {
		t.Fatalf("point:a status %+v, want done after 2 attempts", a)
	}
	if b := r.Status("point:b"); b.Done || b.Attempts != 1 {
		t.Fatalf("point:b status %+v, want incomplete after 1 attempt", b)
	}
	payload, ok := r.LookupDone("point:a")
	if !ok || string(payload) != `{"ok":true}` {
		t.Fatalf("LookupDone(point:a) = %q, %v", payload, ok)
	}
	if _, ok := r.LookupDone("point:b"); ok {
		t.Fatal("LookupDone(point:b) returned a payload for an incomplete unit")
	}
}

// A damaged or tampered payload file must reject the unit — a done record
// whose payload digest no longer matches silently re-runs instead of
// poisoning the merged output.
func TestLookupDoneRejectsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Done("point:x", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.LookupDone("point:x"); !ok {
		t.Fatal("intact payload not restored")
	}
	if err := os.WriteFile(j.unitPath("point:x"), []byte("tampered"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.LookupDone("point:x"); ok {
		t.Fatal("tampered payload restored; digest check missing")
	}
}

// Quarantine is per-process poison, not permanent: the unit is recorded
// (with its dump) but stays not-done, so a resumed process re-enqueues it.
func TestQuarantineReEnqueuesOnResume(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, OpenOptions{Config: "c"})
	if err != nil {
		t.Fatal(err)
	}
	j.Begin("point:poison", "spec", 1, 1)
	j.Quarantine("point:poison", 3, "panic", "boom", []byte("flight dump"))
	j.Close()

	r, err := Open(dir, OpenOptions{Config: "c", Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Status("point:poison")
	if st.Done {
		t.Fatal("quarantined unit came back done; it must re-enqueue on resume")
	}
	if !st.Quarantined {
		t.Fatal("quarantine record lost across resume")
	}
	dump, err := os.ReadFile(r.QuarantinePath("point:poison"))
	if err != nil || string(dump) != "flight dump" {
		t.Fatalf("quarantine dump: %q, %v", dump, err)
	}
	// A later success clears the poison.
	if err := r.Done("point:poison", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if st := r.Status("point:poison"); !st.Done || st.Quarantined {
		t.Fatalf("status after recovery %+v, want done and unpoisoned", st)
	}
}

// A kill mid-append leaves a torn final line; the resume open must
// truncate it so the resumed process appends on a clean record boundary.
func TestResumeTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, OpenOptions{Config: "c"})
	if err != nil {
		t.Fatal(err)
	}
	j.Begin("point:a", "", 0, 1)
	j.Close()

	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	committed := len(data)
	// Simulate a torn append: half a record at the tail.
	line := frameRecords(t, Record{Op: OpDone, Unit: "point:a", Digest: "d"})
	if err := os.WriteFile(path, append(data, line[:len(line)/2]...), 0o666); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, OpenOptions{Config: "c", Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Status("point:a"); st.Done {
		t.Fatal("torn done record applied; an uncommitted record must be dropped")
	}
	r.Begin("point:a", "", 0, 2)
	r.Close()
	// The whole file must replay cleanly now: the torn bytes are gone and
	// the resumed records landed on a record boundary.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= committed {
		t.Fatal("resumed journal did not grow past the truncation point")
	}
	if _, torn, err := Replay(data); err != nil || torn {
		t.Fatalf("journal after torn-tail resume: torn=%v err=%v", torn, err)
	}
}

func TestAtomicWriteCommitsWholeOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the previous content and no temp litter.
	err := AtomicWrite(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return errors.New("synthetic failure")
	})
	if err == nil {
		t.Fatal("failing write reported success")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v1" {
		t.Fatalf("after failed write: %q, %v; want the previous content intact", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("%d directory entries after failed write, want only the original file", len(ents))
	}
}

func TestSanitizeUnitIsInjectiveEnough(t *testing.T) {
	a, b := sanitizeUnit("point:faults[0]"), sanitizeUnit("point:faults[1]")
	if a == b {
		t.Fatalf("distinct units collide after sanitizing: %q", a)
	}
	if strings.ContainsAny(a, "/:[]") {
		t.Fatalf("sanitized unit still holds path-hostile bytes: %q", a)
	}
	long := sanitizeUnit(strings.Repeat("x", 500))
	if len(long) > 100 {
		t.Fatalf("sanitized name too long for comfort: %d bytes", len(long))
	}
}
