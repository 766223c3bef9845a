package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/packet"
)

// The verification must be able to fail: each case breaks one thing in an
// otherwise correct result and expects exactly that to be counted.

func quickEnv(t *testing.T) env {
	return env{seed: 1, quick: true, tmp: t.TempDir(), calib: calibOff}
}

func TestCheckAggCountsADroppedDelivery(t *testing.T) {
	r, err := newAgg(quickEnv(t), aggLine)
	if err != nil {
		t.Fatal(err)
	}
	agg := r.(*aggRunner)
	hosts := make([][]*packet.Packet, agg.ps.Workers)
	for w := range hosts {
		hosts[w] = agg.nets[0].Host(w).Received // the warm-up round
	}
	check := func() int { return checkAgg(hosts, agg.ps.ModelSize, agg.ps.Width, agg.want) }
	if bad := check(); bad != 0 {
		t.Fatalf("an untouched round has %d failed deliveries", bad)
	}
	dropped := hosts[3][5]
	hosts[3] = append(append([]*packet.Packet(nil), hosts[3][:5]...), hosts[3][6:]...)
	if bad := check(); bad != 1 {
		t.Errorf("one dropped delivery counted as %d", bad)
	}
	hosts[3] = append(hosts[3], dropped, dropped)
	if bad := check(); bad != 1 {
		t.Errorf("one duplicated delivery counted as %d", bad)
	}
	hosts[3] = hosts[3][:len(hosts[3])-1]
	wrong := dropped.Clone()
	wrong.Data[len(wrong.Data)-1] ^= 1 // the last weight's low byte
	hosts[3][len(hosts[3])-1] = wrong
	if bad := check(); bad != 1 {
		t.Errorf("one wrong sum counted as %d", bad)
	}
}

func TestCheckKVCountsACorruptedReply(t *testing.T) {
	r, err := newKV(quickEnv(t), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	kv := r.(*kvRunner)
	if err := kv.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := kv.unit(nil); err != nil {
		t.Fatal(err)
	}
	if st := kv.verify(); st.failed != 0 || st.attempted == 0 {
		t.Fatalf("an untouched unit has %d of %d failed", st.failed, st.attempted)
	}
	a := &kv.arch[0]
	hosts := make([][]*packet.Packet, kvClients)
	for h := range hosts {
		hosts[h] = append([]*packet.Packet(nil), a.net.Host(h).Received...)
	}
	check := func() int {
		bad, _, _, _ := checkKV(a.reqs, a.order, hosts, kv.hot, 1, func(int) int { return 0 })
		return bad
	}
	if bad := check(); bad != 0 {
		t.Fatalf("untouched replies: %d bad", bad)
	}
	reply := hosts[2][4].Clone()
	reply.Data[len(reply.Data)-1] ^= 1 // the last pair's value
	hosts[2][4] = reply
	if bad := check(); bad != 1 {
		t.Errorf("one corrupted reply counted as %d", bad)
	}
	hosts[2] = hosts[2][:len(hosts[2])-1]
	if bad := check(); bad != 2 {
		t.Errorf("one corrupted and one missing reply counted as %d", bad)
	}
}

func TestCheckSuiteCountsAFlippedByte(t *testing.T) {
	stdout, metrics := []byte("table\n"), []byte(`{"schema":"adcp-metrics/1"}`)
	first := suiteHash(stdout, metrics)
	if st := checkSuite(first, sweepPass{sim: suiteHash(stdout, metrics), mallocs: 1, bytes: 1}); st.failed != 0 {
		t.Fatalf("an identical pass failed")
	}
	flipped := append([]byte(nil), metrics...)
	flipped[3] ^= 1
	if st := checkSuite(first, sweepPass{sim: suiteHash(stdout, flipped)}); st.failed != 1 || st.attempted != 1 {
		t.Errorf("a pass with one flipped metrics byte: %d of %d failed", st.failed, st.attempted)
	}
	if st := checkSuite(first, sweepPass{err: bytes.ErrTooLarge}); st.failed != 1 {
		t.Errorf("a pass that exited non-zero did not fail")
	}
}

// brokenRunner is agg-line at quick size that loses one delivery per unit
// before verification sees it.
type brokenRunner struct{ *aggRunner }

func (b brokenRunner) verify() unitStats {
	h := b.nets[1].Host(0)
	h.Received = h.Received[1:]
	return b.aggRunner.verify()
}

func TestAFailedOperationFailsTheRun(t *testing.T) {
	workloads = append(workloads, workloadSpec{
		name: "broken", op: "delivered packet",
		setup: func(e env) (runner, error) {
			r, err := newAgg(e, aggLine)
			if err != nil {
				return nil, err
			}
			return brokenRunner{r.(*aggRunner)}, nil
		},
	})
	defer func() { workloads = workloads[:len(workloads)-1] }()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "broken", "-quick", "-out", t.TempDir()}, "", &stdout, &stderr)
	if code == 0 {
		t.Errorf("exit code 0 from a run that lost deliveries")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Correct || res.Failed != 2 || res.Attempted == 0 {
		t.Errorf("result %+v: want correct=false and one failed delivery in each of two units", res)
	}
	if ratio := float64(res.Failed) / float64(res.Attempted); ratio <= 0 {
		t.Errorf("fail_ratio %v", ratio)
	}
}
