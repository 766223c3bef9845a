package runstate

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal record operations.
const (
	OpRun        = "run"        // first record: config digest + argv
	OpResume     = "resume"     // appended by every -resume open
	OpBegin      = "begin"      // a unit attempt started
	OpDone       = "done"       // a unit completed; payload digest committed
	OpFail       = "fail"       // a unit attempt failed (class + error)
	OpQuarantine = "quarantine" // a unit exhausted its retry budget
	OpEnd        = "end"        // clean process shutdown committed the journal
)

// Record is one journal entry. Fields are op-specific; zero values are
// omitted from the encoding.
type Record struct {
	Op      string   `json:"op"`
	Unit    string   `json:"unit,omitempty"`
	Spec    string   `json:"spec,omitempty"`    // begin: human-readable unit spec
	Seed    int64    `json:"seed,omitempty"`    // begin: the unit's declared seed
	Attempt int      `json:"attempt,omitempty"` // begin/fail/quarantine: 1-based attempt count
	Class   string   `json:"class,omitempty"`   // fail/quarantine: panic|watchdog|budget|error
	Digest  string   `json:"digest,omitempty"`  // done: sha256 of the unit payload file
	Err     string   `json:"err,omitempty"`     // fail/quarantine: the error text
	Config  string   `json:"config,omitempty"`  // run: digest of the run configuration
	Argv    []string `json:"argv,omitempty"`    // run: command line, for humans
}

// journalFile is the journal's name inside a run directory.
const journalFile = "journal.jsonl"

// unitsDir holds one payload file per completed unit.
const unitsDir = "units"

// quarantineDir holds one flight-recorder dump per quarantined unit.
const quarantineDir = "quarantine"

// Replay parses a run-journal byte stream into its committed records:
// ReplayRaw's frames, decoded as Records. A torn tail — an invalid or
// incomplete *final* line — is tolerated and reported via torn; damage
// anywhere earlier, or a committed body that is not a Record, is
// corruption and returns an error.
func Replay(data []byte) (recs []Record, torn bool, err error) {
	bodies, torn, err := ReplayRaw(data)
	if err != nil {
		return nil, false, err
	}
	recs, err = decodeRecords(bodies)
	if err != nil {
		return nil, false, err
	}
	return recs, torn, nil
}

// decodeRecords unmarshals committed bodies into run-journal records.
func decodeRecords(bodies [][]byte) ([]Record, error) {
	recs := make([]Record, len(bodies))
	for i, body := range bodies {
		if err := json.Unmarshal(body, &recs[i]); err != nil {
			return nil, fmt.Errorf("runstate: journal corrupt at record %d: bad record JSON: %v", i, err)
		}
	}
	return recs, nil
}

// UnitStatus summarizes what the journal knows about one unit after replay.
type UnitStatus struct {
	Digest      string // payload digest when done
	Done        bool
	Attempts    int // attempts recorded across all processes
	Quarantined bool
}

// Journal is the run journal inside a run directory: a typed view over
// the directory's Log. The Log owns the file — framing, fsync per record,
// torn-tail truncation on open — and the Journal owns what the records
// mean: the unit map folded from them, the config-digest check, and the
// payload files next to the log. One process opens it for the duration of
// a run. All methods are safe for concurrent use by pool workers.
type Journal struct {
	dir     string
	log     *Log
	resumed bool
	mu      sync.Mutex // guards units, and orders appends with their fold
	units   map[string]*UnitStatus
}

// ErrFreshDirHasJournal is returned by Open when the directory already
// holds a journal and Resume was not requested.
var ErrFreshDirHasJournal = errors.New("runstate: run directory already contains a journal (pass -resume to continue it, or use a fresh directory)")

// ErrNothingToResume is returned by Open with Resume set when the
// directory holds no journal.
var ErrNothingToResume = errors.New("runstate: nothing to resume (no journal in run directory)")

// OpenOptions configure Open.
type OpenOptions struct {
	// Config digests the run configuration (experiment selection and every
	// knob that changes deterministic output). A resume whose config digest
	// differs from the journal's refuses to proceed: merging points run
	// under different configurations would silently corrupt the output.
	Config string
	// Argv is recorded in the run record for humans reading the journal.
	Argv []string
	// Resume replays an existing journal instead of starting fresh.
	Resume bool
}

// Open creates or resumes the journal in dir. Fresh runs require dir to
// hold no journal; resumes require one, with a matching config digest.
// Leftover atomic-write temporaries from a killed process are removed
// either way.
func Open(dir string, opt OpenOptions) (*Journal, error) {
	if err := os.MkdirAll(filepath.Join(dir, unitsDir), 0o777); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o777); err != nil {
		return nil, err
	}
	removeTempFiles(dir)
	removeTempFiles(filepath.Join(dir, unitsDir))
	removeTempFiles(filepath.Join(dir, quarantineDir))

	path := filepath.Join(dir, journalFile)
	_, err := os.Stat(path)
	switch {
	case err == nil && !opt.Resume:
		return nil, ErrFreshDirHasJournal
	case os.IsNotExist(err) && opt.Resume:
		return nil, ErrNothingToResume
	case err != nil && !os.IsNotExist(err):
		return nil, err
	}

	log, bodies, _, err := OpenLog(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, log: log, units: make(map[string]*UnitStatus), resumed: opt.Resume}
	first := Record{Op: OpRun, Config: opt.Config, Argv: opt.Argv}
	if opt.Resume {
		first.Op = OpResume
		err = j.replay(bodies, opt.Config)
	}
	if err == nil {
		err = j.append(first)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	return j, nil
}

// replay folds a resumed journal's committed records into the unit map,
// refusing a journal without a run record or with another configuration.
func (j *Journal) replay(bodies [][]byte, config string) error {
	recs, err := decodeRecords(bodies)
	if err != nil {
		return err
	}
	if len(recs) == 0 || recs[0].Op != OpRun {
		return fmt.Errorf("runstate: journal in %s has no run record", j.dir)
	}
	if config != "" && recs[0].Config != config {
		return fmt.Errorf("runstate: resume configuration mismatch: journal was recorded with config %s, this invocation digests to %s (same flags required)",
			short(recs[0].Config), short(config))
	}
	for _, rec := range recs {
		j.apply(rec)
	}
	return nil
}

// short abbreviates a digest for error text.
func short(d string) string {
	if len(d) > 12 {
		return d[:12] + "…"
	}
	if d == "" {
		return "(empty)"
	}
	return d
}

// apply folds one replayed record into the unit map.
func (j *Journal) apply(rec Record) {
	status := func(unit string) *UnitStatus {
		st, ok := j.units[unit]
		if !ok {
			st = &UnitStatus{}
			j.units[unit] = st
		}
		return st
	}
	switch rec.Op {
	case OpBegin:
		st := status(rec.Unit)
		if rec.Attempt > st.Attempts {
			st.Attempts = rec.Attempt
		}
	case OpDone:
		st := status(rec.Unit)
		st.Done, st.Digest, st.Quarantined = true, rec.Digest, false
	case OpFail:
		st := status(rec.Unit)
		if rec.Attempt > st.Attempts {
			st.Attempts = rec.Attempt
		}
	case OpQuarantine:
		// Quarantine poisons the unit for the run that recorded it; a
		// resume re-enqueues it (a fresh process may well succeed), so the
		// unit is simply not Done.
		status(rec.Unit).Quarantined = true
	}
}

// Resumed reports whether this journal continues an earlier process.
func (j *Journal) Resumed() bool { return j.resumed }

// Status returns what the replayed journal recorded about unit.
func (j *Journal) Status(unit string) UnitStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	if st, ok := j.units[unit]; ok {
		return *st
	}
	return UnitStatus{}
}

// append durably commits one record through the log and folds it into
// the unit map. Caller must not hold j.mu.
func (j *Journal) append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(rec); err != nil {
		return err
	}
	j.apply(rec)
	return nil
}

// unitPath returns the payload file for unit.
func (j *Journal) unitPath(unit string) string {
	return filepath.Join(j.dir, unitsDir, sanitizeUnit(unit)+".json")
}

// QuarantinePath returns the dump file recorded for a quarantined unit.
func (j *Journal) QuarantinePath(unit string) string {
	return filepath.Join(j.dir, quarantineDir, sanitizeUnit(unit)+".txt")
}

// Begin records that an attempt at unit started.
func (j *Journal) Begin(unit, spec string, seed int64, attempt int) {
	j.append(Record{Op: OpBegin, Unit: unit, Spec: spec, Seed: seed, Attempt: attempt})
}

// Done atomically persists the unit's payload and commits a done record
// carrying its digest. The payload file lands (rename) before the record
// appends, so a done record always points at a complete payload.
func (j *Journal) Done(unit string, payload []byte) error {
	if err := WriteFileAtomic(j.unitPath(unit), payload); err != nil {
		return err
	}
	return j.append(Record{Op: OpDone, Unit: unit, Digest: Digest(payload)})
}

// Fail records one failed attempt.
func (j *Journal) Fail(unit string, attempt int, class, errMsg string) {
	j.append(Record{Op: OpFail, Unit: unit, Attempt: attempt, Class: class, Err: errMsg})
}

// Quarantine records that unit exhausted its retry budget, persisting the
// post-mortem dump (typically the flight-recorder ring) alongside.
func (j *Journal) Quarantine(unit string, attempts int, class, errMsg string, dump []byte) {
	if len(dump) > 0 {
		WriteFileAtomic(j.QuarantinePath(unit), dump)
	}
	j.append(Record{Op: OpQuarantine, Unit: unit, Attempt: attempts, Class: class, Err: errMsg})
}

// LookupDone returns the persisted payload for a completed unit. The
// payload's digest must match the done record; a mismatch (damaged or
// tampered payload file) rejects the unit so it re-runs rather than
// poisoning the merged output.
func (j *Journal) LookupDone(unit string) ([]byte, bool) {
	j.mu.Lock()
	st, ok := j.units[unit]
	if ok {
		cp := *st
		st = &cp
	}
	j.mu.Unlock()
	if !ok || !st.Done {
		return nil, false
	}
	b, err := os.ReadFile(j.unitPath(unit))
	if err != nil || Digest(b) != st.Digest {
		return nil, false
	}
	return b, true
}

// Close commits an end record and closes the log. Idempotent: the
// shutdown path and the normal exit path may both call it.
func (j *Journal) Close() error {
	err := j.append(Record{Op: OpEnd})
	if errors.Is(err, errLogClosed) {
		return nil
	}
	if cerr := j.log.Close(); err == nil {
		err = cerr
	}
	return err
}
