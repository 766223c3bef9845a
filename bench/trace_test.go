package main

import (
	"reflect"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{
			"a root alone keeps all its time",
			[]span{{Name: "a", Start: 0, End: 100, Parent: -1}},
			[]int64{100},
		},
		{
			"nested: each level loses its child",
			[]span{
				{Name: "round", Start: 0, End: 100, Parent: -1},
				{Name: "netsim.run", Start: 10, End: 90, Parent: 0},
				{Name: "switch.process", Start: 10, End: 40, Parent: 1, Calls: 7},
			},
			[]int64{20, 50, 30},
		},
		{
			"adjacent children both come off the parent",
			[]span{
				{Name: "round", Start: 0, End: 100, Parent: -1},
				{Name: "netsim.new", Start: 0, End: 10, Parent: 0},
				{Name: "netsim.run", Start: 10, End: 70, Parent: 0},
			},
			[]int64{30, 10, 60},
		},
		{
			"two roots do not touch each other",
			[]span{
				{Name: "round.adcp", Start: 0, End: 50, Parent: -1},
				{Name: "round.rmt", Start: 50, End: 80, Parent: -1},
				{Name: "netsim.run", Start: 55, End: 75, Parent: 1},
			},
			[]int64{50, 10, 20},
		},
	}
	for _, c := range cases {
		if got := selfTimes(c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: selfTimes = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerNestsAndAggregates(t *testing.T) {
	var off *tracer
	off.begin("x") // a nil tracer records nothing and must not panic
	off.aggregate("y", time.Second, 3)
	off.end()

	tr := newTracer("w")
	tr.begin("round")
	tr.begin("netsim.run")
	tr.aggregate("switch.process", 5*time.Nanosecond, 3)
	tr.aggregate("switch.process", 0, 0) // no calls, no span
	tr.end()
	tr.begin("apps.verify")
	tr.end()
	tr.end()
	var names []string
	var parents []int
	for _, s := range tr.spans {
		names, parents = append(names, s.Name), append(parents, s.Parent)
		if s.Workload != "w" || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	if want := []string{"round", "netsim.run", "switch.process", "apps.verify"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	if want := []int{-1, 0, 1, 0}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
	tot := spanTotals(tr.spans)
	if got := tot["switch.process"]; got.calls != 3 || got.dur != 5 {
		t.Errorf("switch.process total %+v, want 3 calls in 5 ns", got)
	}
	if run := tot["netsim.run"]; run.self != run.dur-5 {
		t.Errorf("netsim.run self %d of %d, want 5 less", run.self, run.dur)
	}
}
