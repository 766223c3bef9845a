package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp, doc
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp.StatusCode, doc
}

func TestHTTPJobLifecycle(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, doc := postJob(t, srv, `{"exps":["alpha","beta"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("no id in response: %v", doc)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+id {
		t.Fatalf("Location = %q", loc)
	}

	waitState(t, d, id, StateDone)

	code, job := getJSON(t, srv.URL+"/jobs/"+id)
	if code != 200 || job["state"] != "done" {
		t.Fatalf("GET /jobs/%s = %d %v", id, code, job)
	}

	rr, err := http.Get(srv.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != 200 {
		t.Fatalf("GET result = %d", rr.StatusCode)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := rr.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "ALPHA") || !strings.Contains(sb.String(), "BETA") {
		t.Fatalf("result body = %q", sb.String())
	}

	code, list := getJSON(t, srv.URL+"/jobs")
	if code != 200 {
		t.Fatalf("GET /jobs = %d", code)
	}
	if jobs, _ := list["jobs"].([]any); len(jobs) != 1 {
		t.Fatalf("job list = %v", list)
	}

	code, prog := getJSON(t, srv.URL+"/jobs/"+id+"/progress")
	if code != 200 {
		t.Fatalf("GET progress = %d", code)
	}
	exps, _ := prog["experiments"].([]any)
	if len(exps) != 2 {
		t.Fatalf("progress experiments = %v", prog)
	}

	code, ev := getJSON(t, srv.URL+"/jobs/"+id+"/events")
	if code != 200 {
		t.Fatalf("GET events = %d", code)
	}
	events, _ := ev["events"].([]any)
	// submit, admit, start, done
	if len(events) != 4 {
		t.Fatalf("events = %v", ev)
	}

	if code, _ := getJSON(t, srv.URL+"/jobs/j9999"); code != 404 {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}
}

func TestHTTPResultNotReady(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	d := newTestDaemon(t, t.TempDir(), func(c *Config) { c.Experiments = testExps(gate, nil) })
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	_, doc := postJob(t, srv, `{"exps":["slow"]}`)
	id := doc["id"].(string)
	waitRunning(t, d)
	if code, _ := getJSON(t, srv.URL+"/jobs/"+id+"/result"); code != http.StatusConflict {
		t.Fatalf("result of running job = %d, want 409", code)
	}
}

func TestHTTPSheds429WithRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Experiments = testExps(gate, nil)
		c.QueueCap = 1
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	if resp, _ := postJob(t, srv, `{"exps":["slow"]}`); resp.StatusCode != 202 {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	waitRunning(t, d)
	resp, _ := postJob(t, srv, `{"exps":["alpha"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Overload is also visible on readiness.
	if code, doc := getJSON(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable || doc["status"] != "overloaded" {
		t.Fatalf("/readyz under overload = %d %v, want 503 overloaded", code, doc)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	if resp, _ := postJob(t, srv, `{"exps":["nonsense"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown experiment = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJob(t, srv, `{"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJob(t, srv, `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body = %d, want 400", resp.StatusCode)
	}
}

// FuzzSubmitSpec holds POST /jobs to what the daemon can run: any body is
// answered 202, 400 or 429, and a body it accepts is exactly one spec
// document whose timeout is a whole, non-negative number of milliseconds
// and which GET /jobs/{id} returns unchanged. The daemon is never started,
// so no job runs.
func FuzzSubmitSpec(f *testing.F) {
	f.Add([]byte(`{"exps":["table3"]}`))
	f.Add([]byte(`{"exps":["table3"],"timeout_ms":9223372036854775807}`)) // wraps to -1 ms
	f.Add([]byte(`{"exps":["table3"],"timeout_ms":9223372036854776}`))    // wraps to 192 µs
	f.Add([]byte(`{"exps":["table3"]} {"exps":["all"]}`))                 // a second document
	f.Add([]byte(`{"exps":["all"," "],"event_budget":1,"timeout_ms":5,"max_attempts":2}`))
	f.Add([]byte(`{"exps":["nonsense"]}`))
	f.Add([]byte(`{"bogus":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var exps []Experiment
		for _, name := range []string{"table2", "table3", "tension"} {
			exps = append(exps, Experiment{Name: name, Run: func(io.Writer) error { return nil }})
		}
		d, err := New(Config{Dir: t.TempDir(), Experiments: exps})
		if err != nil {
			t.Fatal(err)
		}
		defer d.journal.close()
		h := d.Handler()

		post := httptest.NewRecorder()
		h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch post.Code {
		case http.StatusBadRequest, http.StatusTooManyRequests:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("POST /jobs = %d: %s", post.Code, post.Body)
		}
		var sent Spec
		if err := json.Unmarshal(body, &sent); err != nil {
			t.Fatalf("accepted a body that is not one spec document: %v", err)
		}
		if timeout := time.Duration(sent.TimeoutMs) * time.Millisecond; timeout < 0 || timeout/time.Millisecond != time.Duration(sent.TimeoutMs) {
			t.Fatalf("accepted timeout_ms %d, which runs as %v", sent.TimeoutMs, timeout)
		}
		var accepted struct {
			ID string `json:"id"`
		}
		json.Unmarshal(post.Body.Bytes(), &accepted)
		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/jobs/"+accepted.ID, nil))
		var v JobView
		if get.Code != http.StatusOK || json.Unmarshal(get.Body.Bytes(), &v) != nil {
			t.Fatalf("GET /jobs/%s = %d: %s", accepted.ID, get.Code, get.Body)
		}
		if !reflect.DeepEqual(v.Spec, sent) {
			t.Fatalf("GET /jobs/%s spec = %+v, want the accepted %+v", accepted.ID, v.Spec, sent)
		}
	})
}

func TestHTTPCancel(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	d := newTestDaemon(t, t.TempDir(), func(c *Config) { c.Experiments = testExps(gate, nil) })
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	_, doc := postJob(t, srv, `{"exps":["slow"]}`)
	id := doc["id"].(string)
	waitRunning(t, d)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	waitState(t, d, id, StateCancelled)

	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE of terminal job = %d, want 409", resp2.StatusCode)
	}
}

// Draining is the daemon's own readiness verdict, and it refuses
// submissions; what /healthz and /readyz answer around it is
// TestHTTPContract's.
func TestHTTPHealthAndReadiness(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	if code, doc := getJSON(t, srv.URL+"/readyz"); code != 200 || doc["queue"] != 0.0 || doc["cap"] != 8.0 {
		t.Fatalf("/readyz = %d %v, want 200 with queue 0 of cap 8", code, doc)
	}
	d.Drain(time.Second)
	if resp, _ := postJob(t, srv, `{"exps":["alpha"]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}
}

// One HTTP contract, two mounts: the base plane and a RunView answer the
// same way whether the view sits at the root (what `adcpsim -serve`
// builds) or under /jobs/{id}/ of a daemon with one finished job.
func TestHTTPContract(t *testing.T) {
	measured := Experiment{Name: "measured", Run: func(w io.Writer) error {
		telemetry.Hub().Reg().Set("exp.measured.answer", 42)
		fmt.Fprintln(w, "MEASURED")
		return nil
	}}
	type mount struct {
		name, prefix string
		handler      http.Handler
		drain        func()
		job          bool
	}
	var mounts []mount
	{
		var draining atomic.Bool
		mux := BaseMux(func() map[string]any {
			if draining.Load() {
				return map[string]any{"status": "draining"}
			}
			return map[string]any{"status": "ready"}
		})
		view := NewRunView([]Experiment{measured}, nil)
		view.Mount(mux)
		tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
		RunExperiments(context.Background(), RunConfig{Selection: []Experiment{measured}}, tel, nil, io.Discard, io.Discard,
			func(name string, st ExpState, err error) { view.Update(name, st, err, tel.Metrics) })
		mounts = append(mounts, mount{name: "root", handler: mux, drain: func() { draining.Store(true) }})
	}
	{
		d := newTestDaemon(t, t.TempDir(), func(c *Config) { c.Experiments = []Experiment{measured} })
		id, err := d.Submit(Spec{Exps: []string{"all"}})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, d, id, StateDone)
		mounts = append(mounts, mount{name: "job", prefix: "/jobs/" + id, handler: d.Handler(),
			drain: func() { d.Drain(time.Second) }, job: true})
	}

	for _, m := range mounts {
		t.Run(m.name, func(t *testing.T) {
			srv := httptest.NewServer(m.handler)
			defer srv.Close()
			get := func(path string, wantCode int, wantType string) []byte {
				t.Helper()
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != wantCode {
					t.Fatalf("GET %s = %d, want %d (%s)", path, resp.StatusCode, wantCode, body)
				}
				if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantType) {
					t.Fatalf("GET %s Content-Type = %q, want %s…", path, ct, wantType)
				}
				return body
			}
			getDoc := func(path string, wantCode int, keys ...string) map[string]any {
				t.Helper()
				var doc map[string]any
				if err := json.Unmarshal(get(path, wantCode, "application/json"), &doc); err != nil {
					t.Fatalf("GET %s: not JSON: %v", path, err)
				}
				for _, k := range keys {
					if _, ok := doc[k]; !ok {
						t.Fatalf("GET %s: no %q in %v", path, k, doc)
					}
				}
				return doc
			}

			hz := getDoc("/healthz", 200, "status", "build")
			if build, _ := hz["build"].(map[string]any); hz["status"] != "ok" || build["go_version"] != runtime.Version() {
				t.Fatalf("/healthz = %v, want status ok and the build identity", hz)
			}
			if doc := getDoc("/readyz", 200, "status"); doc["status"] != "ready" {
				t.Fatalf("/readyz = %v, want ready", doc)
			}
			get("/perf", 404, "text/plain") // no perf plane in this process
			if len(get("/debug/pprof/cmdline", 200, "text/plain")) == 0 {
				t.Fatal("/debug/pprof/cmdline is empty")
			}

			prog := getDoc(m.prefix+"/progress", 200, "wall_ms", "sim_run", "sim_t_ps", "experiments")
			exps, _ := prog["experiments"].([]any)
			if len(exps) != 1 {
				t.Fatalf("progress experiments = %v, want one", prog["experiments"])
			}
			if e, _ := exps[0].(map[string]any); e["name"] != "measured" || e["state"] != "done" || e["wall_ms"] == nil {
				t.Fatalf("progress row = %v, want measured/done with wall_ms", exps[0])
			}
			if _, hasID := prog["id"]; hasID != m.job || (m.job && prog["state"] != "done") {
				t.Fatalf("progress id/state = %v/%v on the %s mount", prog["id"], prog["state"], m.name)
			}

			// Prometheus text format 0.0.4: comment lines, then "name{labels} value".
			metrics := string(get(m.prefix+"/metrics", 200, "text/plain; version=0.0.4"))
			if !strings.Contains(metrics, "adcp_exp_measured_answer 42") {
				t.Fatalf("/metrics lacks the experiment's series:\n%s", metrics)
			}
			for i, ln := range strings.Split(strings.TrimRight(metrics, "\n"), "\n") {
				if strings.HasPrefix(ln, "# HELP ") || strings.HasPrefix(ln, "# TYPE ") {
					continue
				}
				name, value, ok := strings.Cut(ln, " ")
				if _, err := strconv.ParseFloat(value, 64); !ok || err != nil || !strings.HasPrefix(name, "adcp_") {
					t.Fatalf("/metrics line %d: %q is not an adcp_ sample", i+1, ln)
				}
			}

			m.drain()
			if doc := getDoc("/readyz", 503, "status"); doc["status"] != "draining" {
				t.Fatalf("/readyz while draining = %v", doc)
			}
			getDoc("/healthz", 200, "status", "build") // liveness stays green: the process is healthy, it just isn't admitting
		})
	}
}

func TestHTTPServiceMetrics(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	_, doc := postJob(t, srv, `{"exps":["alpha"]}`)
	id := doc["id"].(string)
	waitState(t, d, id, StateDone)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 8192)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	body := sb.String()
	for _, series := range []string{"service_jobs_submitted 1", "service_jobs_done 1", "service_queue_cap 8"} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q in:\n%s", series, body)
		}
	}

	// Per-job metrics are scoped under the job id.
	jm, err := http.Get(srv.URL + "/jobs/" + id + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	jm.Body.Close()
	if jm.StatusCode != 200 {
		t.Fatalf("GET /jobs/%s/metrics = %d", id, jm.StatusCode)
	}
	mj, err := http.Get(srv.URL + "/jobs/" + id + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	mj.Body.Close()
	if mj.StatusCode != 200 {
		t.Fatalf("GET /jobs/%s/metrics.json = %d", id, mj.StatusCode)
	}
}

// Handlers read a RunView while the run side updates and publishes it.
func TestRunViewConcurrentReaders(t *testing.T) {
	sel := testExps(nil, nil)[:2]
	view := NewRunView(sel, nil)
	mux := http.NewServeMux()
	view.Mount(mux)
	reg := telemetry.NewRegistry()
	hits := reg.Counter("test.hits")

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/progress", "/metrics"} {
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
					if rec.Code != 200 && !(path == "/metrics" && rec.Code == http.StatusConflict) {
						t.Errorf("GET %s = %d", path, rec.Code)
					}
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		for _, e := range sel {
			view.Update(e.Name, ExpRunning, nil, reg)
			hits.Inc()
			view.Update(e.Name, ExpDone, nil, reg)
		}
	}
	close(stop)
	readers.Wait()
	if doc := view.progress(); doc.Experiments[1].State != "done" || doc.WallMs <= 0 {
		t.Fatalf("final progress = %+v", doc)
	}
}
