package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
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

// The daemon crash gate: submit the whole suite, a poison job (event budget
// 1, so every attempt dies with a budget error) and a short job behind it;
// SIGKILL the daemon mid-suite at a randomized (logged) delay and restart
// it on the same directory. Both good jobs must recover and complete, with
// results and metrics byte-identical to plain batch CLI runs of the same
// selections. The poison job must end quarantined with class budget while
// the service stays ready, and a final SIGTERM must drain with exit 0. The delay counts from the moment the suite is seen
// running: single experiments finish in milliseconds, faster than a fixed
// sleep after the submit can aim for. On failure the service journals are
// logged, so a torn record or a replay bug shows in the test output.
func TestDaemonKillRecoverByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess daemon kill test")
	}
	dir := t.TempDir()
	type golden struct {
		sel, id string
		out     bytes.Buffer
		metrics string
	}
	goldens := []*golden{{sel: "all"}, {sel: "tension"}}
	for _, g := range goldens {
		g.metrics = filepath.Join(dir, g.sel+".want.json")
		cli := execSelf(t, "-exp", g.sel, "-metrics", g.metrics)
		cli.Stdout, cli.Stderr = &g.out, io.Discard
		if err := cli.Run(); err != nil {
			t.Fatalf("golden CLI run of %s: %v", g.sel, err)
		}
	}

	svcDir := filepath.Join(dir, "svc")
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		journals, _ := filepath.Glob(filepath.Join(svcDir, "jobs", "*", "run", "journal.jsonl"))
		for _, p := range append([]string{filepath.Join(svcDir, "jobs.jsonl")}, journals...) {
			b, err := os.ReadFile(p)
			t.Logf("%s (%v):\n%s", p, err, b)
		}
	})
	d1, base := startDaemon(t, svcDir, "-job-retries", "2")
	id := submitJob(t, base, `{"exps":["all"]}`)
	goldens[0].id = id
	poison := submitJob(t, base, `{"exps":["saturation"],"event_budget":1}`)
	goldens[1].id = submitJob(t, base, `{"exps":["tension"]}`)
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

	d2, base2 := startDaemon(t, svcDir, "-job-retries", "2")
	defer func() {
		if d2.ProcessState == nil { // not reaped by the SIGTERM drain below
			d2.Process.Kill()
			d2.Wait()
		}
	}()

	for _, g := range goldens {
		doc := pollTerminal(t, base2, g.id, 3*time.Minute)
		if doc["state"] != "done" {
			t.Fatalf("job %s (%s) ended %v (class %v, error %v), want done", g.id, g.sel, doc["state"], doc["class"], doc["error"])
		}
		if rec, _ := doc["recovered"].(bool); !rec {
			t.Fatalf("job %s (%s) not flagged recovered after daemon restart", g.id, g.sel)
		}
		t.Logf("job %s (%s): done, recovered: true", g.id, g.sel)

		code, gotOut := getBody(t, base2+"/jobs/"+g.id+"/result")
		if code != 200 {
			t.Fatalf("GET %s result = %d", g.sel, code)
		}
		if !bytes.Equal(gotOut, g.out.Bytes()) {
			t.Fatalf("daemon result of %s != CLI stdout (kill at %v)\nwant:\n%s\ngot:\n%s", g.sel, delay, g.out.Bytes(), gotOut)
		}
		code, gotM := getBody(t, base2+"/jobs/"+g.id+"/metrics.json")
		if code != 200 {
			t.Fatalf("GET %s metrics.json = %d", g.sel, code)
		}
		if !bytes.Equal(gotM, readFileT(t, g.metrics)) {
			t.Fatalf("daemon metrics.json of %s != CLI -metrics (kill at %v)", g.sel, delay)
		}
		t.Logf("job %s (%s): result and metrics.json byte-identical to the CLI", g.id, g.sel)
	}

	pdoc := pollTerminal(t, base2, poison, 3*time.Minute)
	if pdoc["state"] != "quarantined" || pdoc["class"] != "budget" {
		t.Fatalf("poison job ended %v (class %v), want quarantined with class budget", pdoc["state"], pdoc["class"])
	}
	t.Logf("poison job %s: quarantined, class budget", poison)

	if code, body := getBody(t, base2+"/readyz"); code != 200 {
		t.Fatalf("/readyz after recovery and quarantine = %d: %s", code, body)
	}
	if err := d2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.Wait(); err != nil {
		t.Fatalf("SIGTERM drain exited non-zero: %v", err)
	}
	t.Log("SIGTERM drain: exit 0")
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
