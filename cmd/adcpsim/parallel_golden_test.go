package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// TestParallelOutputByteIdentical is the acceptance golden for the sweep
// engine: running the two heaviest sweeps (failover, faults) with
// -parallel 8 must produce byte-identical stdout, -metrics JSON, and
// samples CSV to -parallel 1. Sequential execution runs points in order
// on the caller's goroutine, the parallel path on workers; both hand each
// point its own hub and merge in point order — identical
// bytes prove the merge (instance-label renumbering, sampler run-ordinal
// offsets, table fragments) reproduces sequential state exactly. The
// failover sweep's networks publish cct.attr.* series, so the comparison
// covers the critical-path attribution too.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full failover+faults sweeps are slow")
	}
	runAt := func(workers string) (stdout string, metrics, samples []byte) {
		t.Helper()
		dir := t.TempDir()
		mPath := filepath.Join(dir, "m.json")
		cPath := filepath.Join(dir, "s.csv")
		code, out, errw := runCLI(t,
			"-exp", "failover,faults",
			"-parallel", workers,
			"-metrics", mPath,
			"-samples-csv", cPath,
		)
		if code != 0 {
			t.Fatalf("-parallel %s exit = %d, stderr = %q", workers, code, errw)
		}
		m, err := os.ReadFile(mPath)
		if err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(cPath)
		if err != nil {
			t.Fatal(err)
		}
		return out, m, c
	}

	seqOut, seqMetrics, seqSamples := runAt("1")
	parOut, parMetrics, parSamples := runAt("8")

	if seqOut != parOut {
		t.Errorf("stdout differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqOut, parOut)
	}
	if string(seqMetrics) != string(parMetrics) {
		t.Errorf("-metrics JSON differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqMetrics, parMetrics)
	}
	if string(seqSamples) != string(parSamples) {
		t.Errorf("samples CSV differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqSamples, parSamples)
	}
	if !bytes.Contains(seqMetrics, []byte(telemetry.AttrSeriesPrefix)) {
		t.Errorf("-metrics JSON carries no %s* series", telemetry.AttrSeriesPrefix)
	}
}
