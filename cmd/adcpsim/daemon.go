package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/perf"
	"repro/internal/service"
)

// runDaemon is the -daemon mode: a long-lived experiment job service. It
// blocks until a shutdown signal and owns the exit code:
//
//	0  SIGTERM drain completed (running job finished, queue durable on disk)
//	1  startup failure (directory, journal recovery, bind)
//	3  SIGINT fast shutdown (running job checkpointed, resumes on restart)
//	5  SIGTERM drain deadline hit (running job checkpointed, resumes on restart)
//
// Every exit path leaves the service directory recoverable: starting a new
// daemon on it resumes exactly where this one stopped.
func runDaemon(addr string, drainTimeout time.Duration, cfg service.Config) int {
	stderr := cfg.Stderr
	// The perf plane meters the daemon for /perf and perf.job.* the same
	// way -serve enables it for a batch run.
	perf.Enable()
	defer perf.Disable()

	d, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	d.Start()
	defer d.Close()

	srv, err := service.Serve(addr, d.Handler(), func(bound string) {
		fmt.Fprintf(stderr, "daemon on http://%s (dir %s)\n", bound, cfg.Dir)
	})
	if err != nil {
		fmt.Fprintf(stderr, "daemon: %v\n", err)
		return 1
	}
	defer srv.Close()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	sig := <-sigc

	if sig == syscall.SIGTERM {
		// Graceful drain: refuse new jobs (readiness goes 503), give the
		// running job until the deadline, checkpoint it if it blows
		// through. The distinct exit code tells the operator whether a
		// restart has resumption work to do.
		fmt.Fprintf(stderr, "daemon: caught %v, draining (deadline %s)\n", sig, drainTimeout)
		clean := d.Drain(drainTimeout)
		srv.Close()
		if err := d.Close(); err != nil {
			fmt.Fprintf(stderr, "daemon: close: %v\n", err)
		}
		if !clean {
			fmt.Fprintln(stderr, "daemon: drain deadline hit; running job checkpointed, resume by restarting on the same -daemon-dir")
			return 5
		}
		fmt.Fprintln(stderr, "daemon: drained clean")
		return 0
	}
	// SIGINT: fast shutdown. The running job is checkpointed (its run
	// journal survives), the queue stays on disk; exit 3 matches the batch
	// CLI's killed-by-signal convention.
	fmt.Fprintf(stderr, "daemon: caught %v, shutting down\n", sig)
	srv.Close()
	if err := d.Close(); err != nil {
		fmt.Fprintf(stderr, "daemon: close: %v\n", err)
	}
	return 3
}
