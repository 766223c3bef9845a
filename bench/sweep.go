package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
)

// sweepRunner times whole adcpsim processes: what a `make experiments`
// user waits for. A unit is one pass of every experiment at -parallel 1
// with the metrics registry installed. The pass also writes the CLI's own
// perf document: it is the only exact account of a child's allocations,
// and costs under 2 % of a pass.
type sweepRunner struct {
	bin, dir string
	exps     string
	// first is the warm-up pass's output hashes: every timed pass must
	// reproduce them byte for byte.
	first string
	last  sweepPass
}

// sweepPass is what one adcpsim process left behind.
type sweepPass struct {
	err            error
	sim            string // sha256 of stdout and of the metrics document
	mallocs, bytes uint64
	rssMiB         float64
}

func newSweep(e env) (runner, error) {
	if e.adcpsim == "" {
		return nil, errors.New("sweep-build needs -adcpsim (bench/run.sh builds it)")
	}
	r := &sweepRunner{bin: e.adcpsim, dir: e.tmp, exps: "all"}
	if e.quick {
		r.exps = "table3,saturation"
	}
	// The warm-up pass pages the binary in and fixes the reference output.
	warm := r.pass()
	if warm.err != nil {
		return nil, warm.err
	}
	r.first = warm.sim
	return r, nil
}

func (r *sweepRunner) pass() sweepPass {
	metrics, perfDoc := filepath.Join(r.dir, "metrics.json"), filepath.Join(r.dir, "perf.json")
	cmd := exec.Command(r.bin, "-exp", r.exps, "-parallel", "1", "-metrics", metrics, "-perf-json", perfDoc)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return sweepPass{err: fmt.Errorf("adcpsim: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))}
	}
	var p sweepPass
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssMiB = float64(ru.Maxrss) / 1024
	}
	doc, err := os.ReadFile(metrics)
	if err != nil {
		return sweepPass{err: err}
	}
	p.sim = suiteHash(stdout.Bytes(), doc)
	if p.mallocs, p.bytes, err = perfAllocs(perfDoc); err != nil {
		return sweepPass{err: err}
	}
	return p
}

// suiteHash is a pass's identity: its tables and its metrics document.
func suiteHash(stdout, metrics []byte) string {
	return fmt.Sprintf("stdout=%x metrics=%x", sha256.Sum256(stdout), sha256.Sum256(metrics))
}

// perfAllocs reads the process-wide allocation totals out of an
// adcp-perf/1 document.
func perfAllocs(path string) (mallocs, bytes uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var doc struct {
		Metrics []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range doc.Metrics {
		if len(m.Labels) > 0 {
			continue
		}
		switch m.Name {
		case "perf.mem.allocs":
			mallocs = uint64(m.Value)
		case "perf.mem.alloc_bytes":
			bytes = uint64(m.Value)
		}
	}
	if mallocs == 0 || bytes == 0 {
		return 0, 0, fmt.Errorf("%s: no perf.mem.allocs / perf.mem.alloc_bytes", path)
	}
	return mallocs, bytes, nil
}

func (r *sweepRunner) prepare() error { return nil }

func (r *sweepRunner) unit(tr *tracer) error {
	tr.begin("suite.pass")
	r.last = r.pass()
	tr.end()
	return nil
}

func (r *sweepRunner) verify() unitStats {
	return checkSuite(r.first, r.last)
}

// checkSuite counts a pass as failed when the process failed or its
// output differs from the reference pass's by a single byte.
func checkSuite(first string, p sweepPass) unitStats {
	st := unitStats{attempted: 1, sim: p.sim, mallocs: p.mallocs, bytes: p.bytes, rssMiB: p.rssMiB}
	if p.err != nil || p.sim != first {
		st.failed = 1
	}
	return st
}

func (r *sweepRunner) close() error { return nil }
