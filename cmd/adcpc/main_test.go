package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/program"
)

func TestExampleCompilesOnBothTargets(t *testing.T) {
	src, err := os.ReadFile("../../internal/program/testdata/kvcache.p4l")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := program.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range []program.Target{program.RMTTarget(), program.ADCPTarget()} {
		pl, err := program.Compile(spec, tgt)
		if err != nil {
			t.Fatalf("%s: %v", tgt.Name, err)
		}
		out := report(pl)
		for _, want := range []string{"table cache", "table route", "table acl", "register hits"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s report missing %q", tgt.Name, want)
			}
		}
		if tgt.Name == "rmt" && !strings.Contains(out, "WARNING") {
			t.Error("RMT placement should warn about recirculation")
		}
		if tgt.Name == "adcp" && strings.Contains(out, "WARNING") {
			t.Error("ADCP placement should not recirculate")
		}
	}
}
