package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/runstate"
	"repro/internal/telemetry"
)

// shutdownPlan is the one ordered teardown path every way out of the
// process shares — normal return, SIGINT/SIGTERM, or a fatal export
// error. The sequence is fixed: flush profiles (a truncated CPU profile
// of a killed run is worthless), dump the flight recorder when the exit
// is abnormal, commit the run journal's end record, then drain the
// observability server. Idempotent: the deferred call and the signal
// handler may both reach it.
type shutdownPlan struct {
	once    sync.Once
	prof    *profiler
	tel     *telemetry.Telemetry
	journal *runstate.Journal
	srv     *liveServer
	stderr  io.Writer
}

// run executes the teardown exactly once. A non-empty reason marks the
// exit abnormal: it captions the flight-recorder dump.
func (s *shutdownPlan) run(reason string) {
	s.once.Do(func() {
		s.prof.stopCPU()
		s.prof.writeMem()
		if reason != "" && s.tel != nil {
			s.tel.Rec().Dump(s.stderr, reason)
		}
		if s.journal != nil {
			if err := s.journal.Close(); err != nil {
				fmt.Fprintf(s.stderr, "runstate: close journal: %v\n", err)
			}
		}
		s.srv.Drain(2 * time.Second)
	})
}
