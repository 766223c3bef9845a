package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestDaemonUsageErrors(t *testing.T) {
	if code, _, errw := runCLI(t, "-daemon", "127.0.0.1:0"); code != 2 ||
		!strings.Contains(errw, "-daemon-dir") {
		t.Fatalf("-daemon without dir: exit=%d stderr=%q", code, errw)
	}
	if code, _, errw := runCLI(t, "-daemon", "127.0.0.1:0", "-daemon-dir", t.TempDir(),
		"-exp", "faults"); code != 2 || !strings.Contains(errw, "incompatible") {
		t.Fatalf("-daemon with -exp: exit=%d stderr=%q", code, errw)
	}
	if code, _, errw := runCLI(t, "-daemon", "127.0.0.1:0", "-daemon-dir", t.TempDir(),
		"-serve", "127.0.0.1:0"); code != 2 || !strings.Contains(errw, "incompatible") {
		t.Fatalf("-daemon with -serve: exit=%d stderr=%q", code, errw)
	}
	if code, _, errw := runCLI(t, "-daemon", "127.0.0.1:0", "-daemon-dir", t.TempDir(),
		"-exp-timeout", "1s"); code != 2 || !strings.Contains(errw, "-exp-timeout") {
		t.Fatalf("-daemon with -exp-timeout: exit=%d stderr=%q", code, errw)
	}
	// Daemon-only flags in a batch run are refused, not ignored.
	for _, f := range [][]string{{"-daemon-dir", t.TempDir()}, {"-queue-cap", "4"}, {"-job-retries", "3"},
		{"-job-timeout", "1s"}, {"-drain-timeout", "1s"}} {
		if code, _, errw := runCLI(t, append([]string{"-exp", "table3"}, f...)...); code != 2 ||
			!strings.Contains(errw, f[0]+" requires -daemon") {
			t.Fatalf("%s without -daemon: exit=%d stderr=%q", f[0], code, errw)
		}
	}
}

// startDaemon launches the daemon as a real subprocess and returns its
// command handle and base URL once the listener is up.
func startDaemon(t *testing.T, dir string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-daemon", "127.0.0.1:0", "-daemon-dir", dir}, extra...)
	cmd := execSelf(t, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "daemon on http://"); ok {
				addrc <- strings.Fields(rest)[0]
			}
			t.Logf("[daemon] %s", line)
		}
	}()
	select {
	case addr := <-addrc:
		return cmd, "http://" + addr
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not report its address in time")
		return nil, ""
	}
}

func submitJob(t *testing.T, base, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.ID == "" {
		t.Fatalf("bad submit response: %v %q", err, doc.ID)
	}
	return doc.ID
}

func pollTerminal(t *testing.T, base, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err == nil {
			var doc map[string]any
			json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			switch doc["state"] {
			case "done", "failed", "quarantined", "cancelled":
				return doc
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state in %v", id, timeout)
	return nil
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// The daemon-plane golden crash test: SIGKILL the daemon mid-job at a
// randomized (logged) delay, restart it on the same directory, and demand
// (a) the job recovers and completes, and (b) its result and metrics are
// byte-identical to a plain batch CLI run of the same selection. The job is
// the whole suite and the delay counts from the moment the job is seen
// running: single experiments finish in milliseconds, faster than a fixed
// sleep after the submit can aim for.
func TestDaemonKillRecoverByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess daemon kill test")
	}
	dir := t.TempDir()
	sel := "all"
	wantM := filepath.Join(dir, "want.json")

	golden := execSelf(t, "-exp", sel, "-metrics", wantM)
	var wantOut bytes.Buffer
	golden.Stdout = &wantOut
	golden.Stderr = io.Discard
	if err := golden.Run(); err != nil {
		t.Fatalf("golden CLI run: %v", err)
	}

	svcDir := filepath.Join(dir, "svc")
	d1, base := startDaemon(t, svcDir)
	id := submitJob(t, base, `{"exps":["all"]}`)
	for state := any(nil); state != "running"; {
		code, body := getBody(t, base+"/jobs/"+id)
		var doc map[string]any
		if code != 200 || json.Unmarshal(body, &doc) != nil {
			t.Fatalf("GET job = %d: %s", code, body)
		}
		if state = doc["state"]; state == "done" || state == "failed" {
			t.Fatalf("job ended %v before it was seen running", state)
		}
	}

	seed := time.Now().UnixNano()
	delay := time.Duration(rand.New(rand.NewSource(seed)).Intn(40)) * time.Millisecond
	t.Logf("kill seed=%d delay=%v after the job started", seed, delay)
	time.Sleep(delay)
	if err := d1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Logf("kill: %v", err)
	}
	d1.Wait()

	d2, base2 := startDaemon(t, svcDir)
	defer func() {
		d2.Process.Signal(syscall.SIGTERM)
		d2.Wait()
	}()

	doc := pollTerminal(t, base2, id, 3*time.Minute)
	if doc["state"] != "done" {
		t.Fatalf("recovered job ended %v (class %v, error %v), want done", doc["state"], doc["class"], doc["error"])
	}
	if rec, _ := doc["recovered"].(bool); !rec {
		t.Error("job not flagged recovered after daemon restart")
	}

	code, gotOut := getBody(t, base2+"/jobs/"+id+"/result")
	if code != 200 {
		t.Fatalf("GET result = %d", code)
	}
	if !bytes.Equal(gotOut, wantOut.Bytes()) {
		t.Fatalf("daemon result != CLI stdout (kill at %v)\nwant:\n%s\ngot:\n%s", delay, wantOut.Bytes(), gotOut)
	}
	code, gotM := getBody(t, base2+"/jobs/"+id+"/metrics.json")
	if code != 200 {
		t.Fatalf("GET metrics.json = %d", code)
	}
	if !bytes.Equal(gotM, readFileT(t, wantM)) {
		t.Fatalf("daemon metrics.json != CLI -metrics (kill at %v)", delay)
	}
}

// SIGTERM with an idle queue drains clean: distinct exit code 0, and a
// restart on the directory sees the completed job.
func TestDaemonSigtermDrainExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess daemon test")
	}
	dir := t.TempDir()
	d, base := startDaemon(t, dir)
	id := submitJob(t, base, `{"exps":["tension"]}`)
	pollTerminal(t, base, id, 2*time.Minute)

	if err := d.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := d.Wait()
	if err != nil {
		t.Fatalf("SIGTERM drain exited non-zero: %v", err)
	}

	// The terminal state survives the restart.
	d2, base2 := startDaemon(t, dir)
	defer func() {
		d2.Process.Signal(syscall.SIGTERM)
		d2.Wait()
	}()
	code, body := getBody(t, base2+"/jobs/"+id)
	if code != 200 {
		t.Fatalf("GET job after restart = %d", code)
	}
	var doc map[string]any
	json.Unmarshal(body, &doc)
	if doc["state"] != "done" {
		t.Fatalf("job state after restart = %v, want done", doc["state"])
	}
}

// A poison job (event budget 1) is quarantined while the daemon keeps
// serving: the job after it completes normally.
func TestDaemonPoisonJobQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess daemon test")
	}
	dir := t.TempDir()
	d, base := startDaemon(t, dir, "-job-retries", "2")
	defer func() {
		d.Process.Signal(syscall.SIGTERM)
		d.Wait()
	}()

	pid := submitJob(t, base, `{"exps":["saturation"],"event_budget":1}`)
	aid := submitJob(t, base, `{"exps":["tension"]}`)

	pdoc := pollTerminal(t, base, pid, 2*time.Minute)
	if pdoc["state"] != "quarantined" {
		t.Fatalf("poison job ended %v (class %v), want quarantined", pdoc["state"], pdoc["class"])
	}
	if pdoc["class"] != "budget" {
		t.Errorf("poison class = %v, want budget", pdoc["class"])
	}
	adoc := pollTerminal(t, base, aid, 2*time.Minute)
	if adoc["state"] != "done" {
		t.Fatalf("job after poison ended %v, want done — quarantine took the service down?", adoc["state"])
	}

	// readyz stays green through all of it.
	code, body := getBody(t, base+"/readyz")
	if code != 200 {
		t.Fatalf("/readyz after quarantine = %d: %s", code, body)
	}
}
