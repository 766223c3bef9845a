package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/runstate"
)

// seedJournal writes a representative job journal — every op, every
// terminal state, one job left mid-flight — and returns its bytes.
func seedJournal(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	jj, recs, err := openJobJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	spec := &Spec{Exps: []string{"alpha"}}
	seq := []jobRecord{
		{Op: opSubmit, ID: "j0001", Spec: spec},
		{Op: opAdmit, ID: "j0001"},
		{Op: opStart, ID: "j0001", Attempt: 1},
		{Op: opDone, ID: "j0001", OutDigest: "d1", MetricsDigest: "d2"},
		{Op: opSubmit, ID: "j0002", Spec: spec},
		{Op: opAdmit, ID: "j0002"},
		{Op: opStart, ID: "j0002", Attempt: 1},
		{Op: opStart, ID: "j0002", Attempt: 2},
		{Op: opQuarantine, ID: "j0002", Class: "budget", Err: "event budget"},
		{Op: opSubmit, ID: "j0003", Spec: spec},
		{Op: opCancel, ID: "j0003", Err: "cancelled via API"},
		{Op: opSubmit, ID: "j0004", Spec: spec},
		{Op: opAdmit, ID: "j0004"},
		{Op: opStart, ID: "j0004", Attempt: 1},
		{Op: opFail, ID: "j0004", Class: "error", Err: "boom"},
		{Op: opSubmit, ID: "j0005", Spec: spec},
		{Op: opAdmit, ID: "j0005"},
		{Op: opStart, ID: "j0005", Attempt: 1}, // left running: the crash case
	}
	for _, r := range seq {
		if err := jj.append(r); err != nil {
			t.Fatal(err)
		}
	}
	jj.close()
	data, err := os.ReadFile(filepath.Join(dir, jobJournalFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJobJournalKillAtEveryByteOffset is the durability core of the job
// queue: for EVERY byte prefix of a valid journal — every instant a kill
// -9 could strike — reopening must succeed, replay a committed prefix of
// the record sequence, and fold it into valid FSM states. The file the
// reopen leaves behind must be that committed prefix too (a cut inside the
// header leaves a fresh header, which is the same bytes), so the next
// append and the next restart see the queue the replay saw.
func TestJobJournalKillAtEveryByteOffset(t *testing.T) {
	data := seedJournal(t)
	header := bytes.IndexByte(data, '\n') + 1
	dir := t.TempDir()
	var lastCommitted int
	for cut := 0; cut <= len(data); cut++ {
		jdir := filepath.Join(dir, "svc")
		if err := os.MkdirAll(jdir, 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jdir, jobJournalFile), data[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		jj, recs, err := openJobJournal(jdir)
		if err != nil {
			t.Fatalf("cut at %d/%d: open: %v", cut, len(data), err)
		}
		committed := bytes.LastIndexByte(data[:cut], '\n') + 1
		if committed < header {
			committed = header
		}
		if onDisk, _ := os.ReadFile(filepath.Join(jdir, jobJournalFile)); !bytes.Equal(onDisk, data[:committed]) {
			t.Fatalf("cut at %d/%d: reopen left %d bytes on disk, want the %d-byte committed prefix", cut, len(data), len(onDisk), committed)
		}
		jobs, err := replayJobs(recs)
		if err != nil {
			t.Fatalf("cut at %d/%d: replay: %v", cut, len(data), err)
		}
		// One more record and one more restart: every earlier record and
		// the new one must come back.
		if err := jj.append(jobRecord{Op: opSubmit, ID: "j9999", Spec: &Spec{Exps: []string{"alpha"}}}); err != nil {
			t.Fatalf("cut at %d: append after reopen: %v", cut, err)
		}
		jj.close()
		jj2, recs2, err := openJobJournal(jdir)
		if err != nil {
			t.Fatalf("cut at %d: second reopen: %v", cut, err)
		}
		jj2.close()
		if len(recs2) != len(recs)+1 || recs2[len(recs)].ID != "j9999" {
			t.Fatalf("cut at %d: second reopen replayed %d records, want the first %d plus j9999", cut, len(recs2), len(recs))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs2[i], recs[i]) {
				t.Fatalf("cut at %d: record %d changed across the append: %+v → %+v", cut, i, recs[i], recs2[i])
			}
		}
		if jobs2, err := replayJobs(recs2); err != nil || len(jobs2) != len(jobs)+1 {
			t.Fatalf("cut at %d: second replay: %d jobs (want %d), err %v", cut, len(jobs2), len(jobs)+1, err)
		}
		// Record count must be monotone in the cut — a longer prefix can
		// never recover fewer committed records.
		if len(recs) < lastCommitted {
			t.Fatalf("cut at %d: %d records < previous %d", cut, len(recs), lastCommitted)
		}
		lastCommitted = len(recs)
		for _, j := range jobs {
			switch j.state {
			case StateQueued, StateAdmitted, StateRunning, StateDone,
				StateFailed, StateQuarantined, StateCancelled:
			default:
				t.Fatalf("cut at %d: job %s in impossible state %q", cut, j.id, j.state)
			}
		}
		os.RemoveAll(jdir)
	}
	// The full journal folds to the expected terminal picture.
	jdir := filepath.Join(dir, "final")
	os.MkdirAll(jdir, 0o777)
	if err := os.WriteFile(filepath.Join(jdir, jobJournalFile), data, 0o666); err != nil {
		t.Fatal(err)
	}
	jj, recs, err := openJobJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	jj.close()
	jobs, err := replayJobs(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]State{
		"j0001": StateDone, "j0002": StateQuarantined, "j0003": StateCancelled,
		"j0004": StateFailed, "j0005": StateRunning,
	}
	if len(jobs) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(jobs), len(want))
	}
	for _, j := range jobs {
		if j.state != want[j.id] {
			t.Errorf("job %s replayed as %s, want %s", j.id, j.state, want[j.id])
		}
	}
	if jobs[1].starts != 2 {
		t.Errorf("j0002 starts = %d, want 2", jobs[1].starts)
	}
	if jobs[0].outDig != "d1" || jobs[0].metDig != "d2" {
		t.Errorf("j0001 digests = %q/%q", jobs[0].outDig, jobs[0].metDig)
	}
}

// Replay must reject records that no live daemon could have written:
// unknown jobs, duplicate submits, illegal FSM hops.
func TestReplayJobsRejectsCorruptSequences(t *testing.T) {
	spec := &Spec{Exps: []string{"alpha"}}
	cases := map[string][]jobRecord{
		"unknown job":      {{Op: opDone, ID: "jX"}},
		"duplicate submit": {{Op: opSubmit, ID: "j1", Spec: spec}, {Op: opSubmit, ID: "j1", Spec: spec}},
		"submit sans spec": {{Op: opSubmit, ID: "j1"}},
		"done from queued": {{Op: opSubmit, ID: "j1", Spec: spec}, {Op: opDone, ID: "j1"}},
		"run after done": {
			{Op: opSubmit, ID: "j1", Spec: spec}, {Op: opAdmit, ID: "j1"},
			{Op: opStart, ID: "j1", Attempt: 1}, {Op: opDone, ID: "j1"},
			{Op: opStart, ID: "j1", Attempt: 2},
		},
		"unknown op": {{Op: opSubmit, ID: "j1", Spec: spec}, {Op: "explode", ID: "j1"}},
	}
	for name, recs := range cases {
		if _, err := replayJobs(recs); err == nil {
			t.Errorf("%s: replay accepted a corrupt sequence", name)
		}
	}
}

// A foreign or future-schema journal must refuse to open.
func TestJobJournalRejectsSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	log, _, _, err := runstate.OpenLog(filepath.Join(dir, jobJournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(jobRecord{Op: opSvc, Schema: "adcp-job/999"}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if _, _, err := openJobJournal(dir); err == nil {
		t.Fatal("openJobJournal accepted a foreign schema")
	}
}
