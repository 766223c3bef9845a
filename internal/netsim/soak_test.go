package netsim

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// soakSeed runs one chaos seed and returns an error describing any
// violated property, so seeds can fan out across the parallel pool. With
// saturated set the switch serves 2 µs per packet against one arrival per
// µs, so the plan's stall, crash and retransmissions hit packets standing in
// the admission queue. The run's ledger is left in *led.
func soakSeed(seed int, saturated bool, led *Ledger) error {
	const (
		hosts   = 8
		pkts    = 64
		horizon = 200 * sim.Microsecond
	)
	plan := faults.RandomPlan(sim.NewRNG(uint64(seed)+0x50A5), hosts, horizon)
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("generated plan invalid: %v", err)
	}
	// A generous budget: chaos plans can stack a crash window on a
	// lossy link, and the soak asserts eventual completion, not speed.
	rec := faults.DefaultRecovery()
	rec.MaxRetries = 64
	cfg := faultyConfig(hosts, plan, &rec)
	var sw SwitchModel = echoSwitch{}
	// A quarter of random plans kill the switch; those runs get a warm
	// standby so completion survives the failover — except saturated ones
	// (a standby excludes a service rate), whose senders abort instead.
	dies := saturated && plan.SwitchCrashAt > 0
	switch {
	case saturated:
		cfg.ServiceRatePPS = 5e5
		sw = &busyCountingSwitch{costEach: 1}
	case plan.SwitchCrashAt > 0:
		cfg.Standby = echoSwitch{}
	}
	n, err := New(cfg, sw)
	if err != nil {
		return err
	}
	n.Tracker().Expect(1, pkts)
	for i := 0; i < pkts; i++ {
		src := i % hosts
		n.SendAt(src, rawPkt(src, (i+1)%hosts, 1), sim.Time(i)*sim.Microsecond)
	}
	n.Run()
	if errs := n.Errors(); len(errs) != 0 {
		return fmt.Errorf("plan %+v\nerrors: %v\nledger: %+v", plan, errs, n.Ledger())
	}
	if !dies && !n.Tracker().Done(1) {
		return fmt.Errorf("coflow incomplete\nplan %+v\nstatus %+v\nledger %+v",
			plan, n.Tracker().Status(1), n.Ledger())
	}
	if err := n.CheckConservation(); err != nil {
		return fmt.Errorf("conservation: %v", err)
	}
	*led = n.Ledger()
	return nil
}

// TestChaosSoak throws randomly-generated fault plans (loss, corruption,
// link-down windows, host crashes, switch stalls) at the network with
// recovery enabled and asserts the two properties the fault plane
// guarantees: the conservation ledger balances (auto-asserted by Run) and
// the coflow completes despite everything the plan did to it. Every seed
// runs twice: at line rate, and with the switch as the bottleneck, where the
// same faults land on a standing admission queue (and a crashed switch has
// no standby, so the ledger must balance around aborted senders instead).
//
// Seeds fan out across the parallel worker pool — each seed builds its own
// network, so seeds share nothing. Tier-1 runs 500 seeds (half a second),
// short mode a handful; set SOAK_SEEDS to widen the hunt (`make soak` runs
// 5000) and PARALLEL to set the pool width (default: NumCPU).
func TestChaosSoak(t *testing.T) {
	seeds := 8
	if !testing.Short() {
		seeds = 500
	}
	if s := os.Getenv("SOAK_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad SOAK_SEEDS %q", s)
		}
		seeds = v
	}
	workers := runtime.NumCPU()
	if s := os.Getenv("PARALLEL"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad PARALLEL %q", s)
		}
		workers = v
	}

	var pts []parallel.Point
	leds := make([]Ledger, seeds) // the saturated arm's, one per point: nothing shared
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		pts = append(pts, parallel.Point{
			Name: fmt.Sprintf("seed %d", seed),
			Run:  func() error { return soakSeed(seed, false, new(Ledger)) },
		}, parallel.Point{
			Name: fmt.Sprintf("seed %d saturated", seed),
			Run:  func() error { return soakSeed(seed, true, &leds[seed]) },
		})
	}
	if err := parallel.Run(pts, parallel.Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	var sum Ledger
	for _, l := range leds {
		sum.StallDeferrals += l.StallDeferrals
		sum.CrashDrops += l.CrashDrops
		sum.DupSuppressed += l.DupSuppressed
	}
	t.Logf("saturated arm: %d stall deferrals, %d crash drops, %d suppressed duplicates",
		sum.StallDeferrals, sum.CrashDrops, sum.DupSuppressed)
	if sum.StallDeferrals == 0 || sum.CrashDrops == 0 || sum.DupSuppressed == 0 {
		t.Errorf("saturated arm never exercised one of stall deferral, crash drop, duplicate suppression")
	}
}
