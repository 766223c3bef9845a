package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// httpGet fetches a URL with a short timeout and returns status + body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeLiveDuringRun drives the whole -serve plane from inside a run:
// a probe experiment, executing while the server is up, performs the HTTP
// requests a human would. The experiment list mixes one real experiment
// (so real switch metrics exist) with the probe.
func TestServeLiveDuringRun(t *testing.T) {
	var addr string
	listenReady = func(a string) { addr = a }
	defer func() { listenReady = nil }()

	probed := false
	probe := func(w io.Writer) error {
		probed = true
		base := "http://" + addr

		if code, body := httpGet(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
			t.Errorf("/healthz = %d %q", code, body)
		}

		code, body := httpGet(t, base+"/metrics")
		if code != 200 {
			t.Errorf("/metrics = %d", code)
		}
		// The saturation experiment ran before the probe, so real switch
		// series are already published.
		for _, want := range []string{"# TYPE adcp_", "adcp_switch_", "# HELP "} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q in:\n%.600s", want, body)
			}
		}
		for _, ln := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
			if !strings.HasPrefix(ln, "#") && !strings.HasPrefix(ln, "adcp_") {
				t.Errorf("/metrics line without adcp_ prefix: %q", ln)
			}
		}

		code, body = httpGet(t, base+"/progress")
		if code != 200 {
			t.Errorf("/progress = %d", code)
		}
		var doc struct {
			WallMs      float64 `json:"wall_ms"`
			SimTPs      int64   `json:"sim_t_ps"`
			Experiments []struct {
				Name  string `json:"name"`
				State string `json:"state"`
			} `json:"experiments"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/progress not JSON: %v (%q)", err, body)
		}
		states := map[string]string{}
		for _, e := range doc.Experiments {
			states[e.Name] = e.State
		}
		if states["saturation"] != "done" {
			t.Errorf("saturation state = %q, want done", states["saturation"])
		}
		if states["probe"] != "running" {
			t.Errorf("probe state = %q, want running", states["probe"])
		}
		if doc.SimTPs == 0 {
			t.Error("progress sim_t_ps = 0, want sampled sim time from the saturation run")
		}

		if code, body := httpGet(t, base+"/debug/pprof/cmdline"); code != 200 || len(body) == 0 {
			t.Errorf("/debug/pprof/cmdline = %d (%d bytes)", code, len(body))
		}
		return nil
	}

	exps := []experiment{
		defaultExperiment(t, "saturation"),
		{"probe", "", probe},
	}
	var out, errw bytes.Buffer
	code := run(exps, []string{"-exp", "all", "-serve", "127.0.0.1:0"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errw.String())
	}
	if !probed {
		t.Fatal("probe experiment never ran")
	}
	if !strings.Contains(errw.String(), "serving on http://") {
		t.Errorf("stderr missing serve banner: %q", errw.String())
	}

	// The server must be down after the run.
	client := &http.Client{Timeout: time.Second}
	if _, err := client.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still reachable after run ended")
	}
}

func TestServeBadAddr(t *testing.T) {
	exps := []experiment{{"noop", "", func(w io.Writer) error { return nil }}}
	var out, errw bytes.Buffer
	if code := run(exps, []string{"-exp", "all", "-serve", "256.0.0.1:bad"}, &out, &errw); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %q)", code, errw.String())
	}
}

func TestServeMetricsParsesAsPrometheus(t *testing.T) {
	var addr string
	listenReady = func(a string) { addr = a }
	defer func() { listenReady = nil }()

	probe := func(w io.Writer) error {
		_, body := httpGet(t, "http://"+addr+"/metrics")
		// Minimal strict pass: every non-comment line is name{labels} value
		// with no unescaped newline inside label values.
		for i, ln := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
			if ln == "" {
				return fmt.Errorf("line %d empty", i+1)
			}
			if strings.HasPrefix(ln, "# HELP ") || strings.HasPrefix(ln, "# TYPE ") {
				continue
			}
			sp := strings.LastIndexByte(ln, ' ')
			if sp <= 0 {
				return fmt.Errorf("line %d: %q has no value field", i+1, ln)
			}
			name := ln[:sp]
			if !strings.HasPrefix(name, "adcp_") {
				return fmt.Errorf("line %d: sample %q not adcp_-prefixed", i+1, name)
			}
		}
		return nil
	}
	exps := []experiment{
		defaultExperiment(t, "cachehit"),
		{"probe", "", probe},
	}
	var out, errw bytes.Buffer
	if code := run(exps, []string{"-exp", "all", "-serve", "127.0.0.1:0"}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errw.String())
	}
}
