package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/service"
)

// daemonExperiments is the experiment table the benchmark daemon serves: the
// analytic table3 alone, so a job costs what the service plane costs
// (journaled FSM, run directory, run journal, result commit) and next to
// nothing in the simulator. The HTTP plane is not part of the loop.
var daemonExperiments = []service.Experiment{{
	Name: "table3", Desc: "port demultiplexing examples (analytic)",
	Run: func(w io.Writer) error {
		t, _ := experiments.Table3()
		_, err := fmt.Fprint(w, t)
		return err
	},
}}

const (
	daemonWarmJobs = 20
	// daemonJobs bounds a run: the daemon keeps every job it has run, so
	// its memory is a function of the jobs run.
	daemonJobs = 600
	// daemonQueueCap is never reached by one closed-loop client.
	daemonQueueCap = 4
)

// daemonRunner is a closed loop with one client: a unit submits one job
// and waits for it to finish.
type daemonRunner struct {
	d   *service.Daemon
	dir string
	// first is the first warm-up job's result identity: every job runs
	// the same experiment, so every job must commit the same bytes.
	first string
	last  service.JobView
	err   error
}

// startDaemon opens a job daemon on a fresh directory under dir.
func startDaemon(dir string) (*service.Daemon, string, error) {
	dir, err := os.MkdirTemp(dir, "daemon-")
	if err != nil {
		return nil, "", err
	}
	d, err := service.New(service.Config{
		Dir: dir, Experiments: daemonExperiments, QueueCap: daemonQueueCap, Parallel: 1, Stderr: io.Discard,
	})
	if err != nil {
		return nil, "", err
	}
	d.Start()
	return d, dir, nil
}

func newDaemon(e env) (runner, error) {
	d, dir, err := startDaemon(e.tmp)
	if err != nil {
		return nil, err
	}
	r := &daemonRunner{d: d, dir: dir}
	warm := daemonWarmJobs
	if e.quick {
		warm = 2
	}
	for i := 0; i < warm; i++ {
		if err := r.unit(nil); err != nil {
			r.close()
			return nil, err
		}
		if i == 0 {
			r.first = jobIdentity(r.last)
		}
		if st := r.verify(); st.failed > 0 {
			r.close()
			return nil, fmt.Errorf("warm-up job %s ended %q: %s %v", r.last.ID, r.last.State, r.last.Error, r.err)
		}
	}
	return r, nil
}

func (r *daemonRunner) prepare() error { return nil }

func (r *daemonRunner) unit(tr *tracer) error {
	tr.begin("job")
	defer tr.end()
	tr.begin("service.submit")
	id, err := r.d.Submit(service.Spec{Exps: []string{"table3"}})
	tr.end()
	if err != nil {
		r.last, r.err = service.JobView{}, err
		return nil
	}
	tr.begin("service.wait")
	r.last, r.err = r.d.Wait(id)
	tr.end()
	return nil
}

func (r *daemonRunner) verify() unitStats { return checkJob(r.first, r.last, r.err) }

// jobIdentity names the bytes a job committed.
func jobIdentity(v service.JobView) string {
	return "out=" + v.OutDigest + " metrics=" + v.MetricsDigest
}

// checkJob counts a job as failed unless it ended done with the reference
// result.
func checkJob(first string, v service.JobView, err error) unitStats {
	st := unitStats{attempted: 1, sim: jobIdentity(v)}
	if err != nil || v.State != service.StateDone || v.OutDigest == "" || st.sim != first {
		st.failed = 1
	}
	return st
}

func (r *daemonRunner) close() error {
	err := r.d.Close()
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	return err
}

// journalBytes is the size of the daemon's job journal.
func journalBytes(dir string) (int64, error) {
	fi, err := os.Stat(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
