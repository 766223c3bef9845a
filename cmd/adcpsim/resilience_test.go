package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/service"
)

// TestMain lets the test binary re-exec as the real CLI: the golden
// kill-resume tests need an honest process to SIGKILL, and building a
// second binary per test run is slower than re-entering run() here.
func TestMain(m *testing.M) {
	if os.Getenv("ADCPSIM_EXEC") == "1" {
		os.Exit(run(defaultExperiments(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// execSelf runs the CLI as a real subprocess via the TestMain trampoline.
func execSelf(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "ADCPSIM_EXEC=1")
	return cmd
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Journaling must not perturb output: the same selection with and without
// -run-dir produces byte-identical stdout and -metrics.
func TestRunDirDoesNotPerturbOutput(t *testing.T) {
	dir := t.TempDir()
	mPlain, mJournal := filepath.Join(dir, "plain.json"), filepath.Join(dir, "journal.json")

	code, plainOut, errw := runCLI(t, "-exp", "faults,failover", "-parallel", "4", "-metrics", mPlain)
	if code != 0 {
		t.Fatalf("plain run exit %d: %s", code, errw)
	}
	code, journalOut, errw := runCLI(t, "-exp", "faults,failover", "-parallel", "4",
		"-metrics", mJournal, "-run-dir", filepath.Join(dir, "run"))
	if code != 0 {
		t.Fatalf("journaled run exit %d: %s", code, errw)
	}
	if plainOut != journalOut {
		t.Fatalf("stdout diverges under -run-dir:\nplain:\n%s\njournaled:\n%s", plainOut, journalOut)
	}
	if !bytes.Equal(readFileT(t, mPlain), readFileT(t, mJournal)) {
		t.Fatal("-metrics bytes diverge under -run-dir")
	}
}

// A full resume of a COMPLETED run replays everything from the journal —
// stdout and metrics stay byte-identical, and no experiment re-runs.
func TestResumeReplaysCompletedRun(t *testing.T) {
	dir := t.TempDir()
	runDir := filepath.Join(dir, "run")
	m1, m2 := filepath.Join(dir, "m1.json"), filepath.Join(dir, "m2.json")

	// Two experiments, so the second one's journal payload is encoded at a
	// non-zero instance-label offset — a restore must not shift numbering.
	code, out1, errw := runCLI(t, "-exp", "faults,failover", "-metrics", m1, "-run-dir", runDir)
	if code != 0 {
		t.Fatalf("first run exit %d: %s", code, errw)
	}
	code, out2, errw := runCLI(t, "-exp", "faults,failover", "-metrics", m2, "-run-dir", runDir, "-resume")
	if code != 0 {
		t.Fatalf("resume exit %d: %s", code, errw)
	}
	if out1 != out2 {
		t.Fatalf("resumed stdout diverges:\nfirst:\n%s\nresumed:\n%s", out1, out2)
	}
	if !bytes.Equal(readFileT(t, m1), readFileT(t, m2)) {
		t.Fatal("resumed -metrics bytes diverge")
	}
	if !strings.Contains(errw, "restored") {
		t.Fatalf("resume stderr does not report restored units: %s", errw)
	}
}

// The golden crash test: SIGKILL the run at a randomized (logged) delay,
// resume it, and demand stdout and -metrics byte-identical to an
// uninterrupted run — at sequential and wide parallelism. The run is the
// whole suite: journaled, it lasts longer than the longest delay, so the
// kill lands mid-run (a sweep or two finishes in tens of milliseconds).
func TestKillResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-resume test")
	}
	for _, width := range []int{1, 8} {
		width := width
		t.Run(fmt.Sprintf("parallel-%d", width), func(t *testing.T) {
			dir := t.TempDir()
			sel := "all"
			wantM := filepath.Join(dir, "want.json")

			golden := execSelf(t, "-exp", sel, "-parallel", fmt.Sprint(width), "-metrics", wantM)
			var wantOut bytes.Buffer
			golden.Stdout = &wantOut
			golden.Stderr = os.Stderr
			if err := golden.Run(); err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}

			seed := time.Now().UnixNano()
			delay := time.Duration(20+rand.New(rand.NewSource(seed)).Intn(120)) * time.Millisecond
			t.Logf("kill seed=%d delay=%v", seed, delay)

			runDir := filepath.Join(dir, "run")
			victim := execSelf(t, "-exp", sel, "-parallel", fmt.Sprint(width),
				"-metrics", filepath.Join(dir, "victim.json"), "-run-dir", runDir)
			victim.Stdout, victim.Stderr = io.Discard, io.Discard
			if err := victim.Start(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(delay)
			// The process may have already finished — a resume of a completed
			// journal is an equally valid identity check.
			if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
				t.Logf("kill after %v: %v (process likely finished)", delay, err)
			}
			victim.Wait()

			gotM := filepath.Join(dir, "got.json")
			resumed := execSelf(t, "-exp", sel, "-parallel", fmt.Sprint(width),
				"-metrics", gotM, "-run-dir", runDir, "-resume")
			var gotOut, resumedErr bytes.Buffer
			resumed.Stdout, resumed.Stderr = &gotOut, &resumedErr
			if err := resumed.Run(); err != nil {
				t.Fatalf("resume failed: %v\nstderr: %s", err, resumedErr.String())
			}
			if !bytes.Equal(gotOut.Bytes(), wantOut.Bytes()) {
				t.Fatalf("resumed stdout != uninterrupted stdout (kill at %v)\nwant:\n%s\ngot:\n%s",
					delay, wantOut.Bytes(), gotOut.Bytes())
			}
			if !bytes.Equal(readFileT(t, gotM), readFileT(t, wantM)) {
				t.Fatalf("resumed -metrics != uninterrupted -metrics (kill at %v)", delay)
			}
		})
	}
}

func TestResumeUsageErrors(t *testing.T) {
	if code, _, errw := runCLI(t, "-exp", "faults", "-resume"); code != 2 ||
		!strings.Contains(errw, "-run-dir") {
		t.Fatalf("-resume without -run-dir: exit=%d stderr=%q", code, errw)
	}
	dir := t.TempDir()
	if code, _, errw := runCLI(t, "-exp", "faults", "-run-dir", dir, "-trace", "-"); code != 2 ||
		!strings.Contains(errw, "journal") {
		t.Fatalf("-run-dir with -trace: exit=%d stderr=%q", code, errw)
	}
}

// Resuming under a different experiment selection must refuse: the journal
// records a config digest, and replaying half a run into a different run
// would silently produce wrong output.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	if code, _, errw := runCLI(t, "-exp", "faults", "-run-dir", dir); code != 0 {
		t.Fatalf("seed run exit %d: %s", code, errw)
	}
	code, _, errw := runCLI(t, "-exp", "failover", "-run-dir", dir, "-resume")
	if code != 1 || !strings.Contains(errw, "mismatch") {
		t.Fatalf("mismatched resume: exit=%d stderr=%q", code, errw)
	}
}

// The config digest records a knob only where it shapes output: detail
// without a tracer, or a sampling knob without a sampler (or at a value
// the sampler replaces by its default), cannot block a resume.
func TestResumeIgnoresKnobsThatShapeNothing(t *testing.T) {
	for _, knob := range [][]string{{"-trace-detail"}, {"-sample-interval-us", "0"}, {"-sample-cap", "7"}} {
		dir := t.TempDir()
		args := []string{"-exp", "table3", "-metrics", filepath.Join(dir, "m.json"), "-run-dir", filepath.Join(dir, "run")}
		if code, _, errw := runCLI(t, append(args, knob...)...); code != 0 {
			t.Fatalf("%v: first run exit %d: %s", knob, code, errw)
		}
		code, _, errw := runCLI(t, append(args, "-resume")...)
		if code != 0 || !strings.Contains(errw, "1 of 1 experiments restored") {
			t.Fatalf("%v: resume without it: exit=%d stderr=%q", knob, code, errw)
		}
	}
}

// journalConfig returns the config digest a run journal recorded.
func journalConfig(t *testing.T, runDir string) string {
	t.Helper()
	first, _, _ := strings.Cut(string(readFileT(t, filepath.Join(runDir, "journal.jsonl"))), "\n")
	var rec struct {
		Config string `json:"config"`
	}
	if _, body, ok := strings.Cut(first, "{"); !ok || json.Unmarshal([]byte("{"+body), &rec) != nil {
		t.Fatalf("unreadable journal header %q", first)
	}
	return rec.Config
}

// Run directories written by earlier builds still resume: the digest of a
// default -metrics run, and of a default daemon job (the same run), is
// pinned.
func TestConfigDigestPinned(t *testing.T) {
	const want = "241610ea8cfaaac3282440ec6ca94275983ceaa81f11a59b61eac938a5e0303e"
	dir := t.TempDir()
	if code, _, errw := runCLI(t, "-exp", "table3", "-metrics", filepath.Join(dir, "m.json"), "-run-dir", filepath.Join(dir, "run")); code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if got := journalConfig(t, filepath.Join(dir, "run")); got != want {
		t.Errorf("CLI -metrics run digest %s, want %s", got, want)
	}
	d, err := service.New(service.Config{Dir: filepath.Join(dir, "svc"), Experiments: serviceExperiments(defaultExperiments())})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	id, err := d.Submit(service.Spec{Exps: []string{"table3"}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Wait(id)
	if cerr := d.Close(); err != nil || cerr != nil || v.State != service.StateDone {
		t.Fatalf("job ended %q (%s): wait %v, close %v", v.State, v.Error, err, cerr)
	}
	if got := journalConfig(t, filepath.Join(dir, "svc", "jobs", id, "run")); got != want {
		t.Errorf("daemon job digest %s, want %s", got, want)
	}
}

// A daemon job and the CLI describe a run the same way, so the CLI can
// resume a job's run directory: every experiment restores from the job's
// journal and the bytes match what the job committed. The job selects
// with "all" and the CLI by id — one resolved selection, one digest.
func TestCLIResumesJobRunDirectory(t *testing.T) {
	exps := []experiment{defaultExperiment(t, "faults"), defaultExperiment(t, "failover")}
	dir := t.TempDir()
	d, err := service.New(service.Config{Dir: dir, Experiments: serviceExperiments(exps)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	id, err := d.Submit(service.Spec{Exps: []string{"all"}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Wait(id)
	if cerr := d.Close(); err != nil || cerr != nil || v.State != service.StateDone {
		t.Fatalf("job ended %q (%s): wait %v, close %v", v.State, v.Error, err, cerr)
	}

	jobDir := filepath.Join(dir, "jobs", id)
	m := filepath.Join(dir, "m.json")
	var out, errw bytes.Buffer
	code := run(exps, []string{"-exp", "faults,failover", "-metrics", m, "-run-dir", filepath.Join(jobDir, "run"), "-resume"}, &out, &errw)
	if code != 0 {
		t.Fatalf("resume of the job's run directory: exit %d: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "2 of 2 experiments restored") {
		t.Fatalf("resume re-ran experiments the job had journaled: %s", errw.String())
	}
	if !bytes.Equal(out.Bytes(), readFileT(t, filepath.Join(jobDir, "out.txt"))) {
		t.Fatalf("resumed stdout != the job's out.txt:\n%s", out.String())
	}
	if !bytes.Equal(readFileT(t, m), readFileT(t, filepath.Join(jobDir, "metrics.json"))) {
		t.Fatal("resumed -metrics != the job's metrics.json")
	}
}

// -point-retries wires a supervised-retry policy into the experiments
// layer for the duration of the run, and restores the zero policy after.
func TestPointRetriesInstallsPolicy(t *testing.T) {
	var got parallel.RetryPolicy
	probe := []experiment{{"probe", "reads the installed retry policy", func(w io.Writer) error {
		got = experiments.RetryPolicy()
		return nil
	}}}
	var out, errw bytes.Buffer
	code := run(probe, []string{"-exp", "probe", "-point-retries", "3", "-retry-backoff", "5ms"}, &out, &errw)
	if code != 0 {
		t.Fatalf("probe run exit %d: %s", code, errw.String())
	}
	if got.MaxAttempts != 3 || !got.Quarantine || got.BaseBackoff != 5*time.Millisecond {
		t.Fatalf("policy seen by experiments = %+v, want 3 attempts, quarantine, 5ms base", got)
	}
	after := experiments.RetryPolicy()
	if after.MaxAttempts != 0 {
		t.Fatalf("retry policy leaked after the run: %+v", after)
	}
}
