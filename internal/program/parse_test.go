package program

import (
	"strings"
	"testing"

	"repro/internal/phv"
)

const sampleSrc = `
# An in-network multi-key cache.
program kvcache

field kv_op: 8
field coflow_id: 32
array batch

table cache exact entries=32768 keys=8
table route lpm entries=1024
table acl ternary entries=256

register hits cells=1024

after cache hits
after route acl
`

func TestParseSample(t *testing.T) {
	spec, err := Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "kvcache" {
		t.Errorf("name = %q", spec.Name)
	}
	if len(spec.Fields) != 3 {
		t.Fatalf("fields = %d", len(spec.Fields))
	}
	if spec.Fields[0] != (FieldSpec{Name: "kv_op", Width: phv.W8}) {
		t.Errorf("field 0 = %+v", spec.Fields[0])
	}
	if !spec.Fields[2].Array || spec.Fields[2].Name != "batch" {
		t.Errorf("array field = %+v", spec.Fields[2])
	}
	if len(spec.Tables) != 3 {
		t.Fatalf("tables = %d", len(spec.Tables))
	}
	cache := spec.Tables[0]
	if cache.Kind != MatchExact || cache.Entries != 32768 || cache.KeysPerPacket != 8 {
		t.Errorf("cache = %+v", cache)
	}
	if spec.Tables[1].Kind != MatchLPM || spec.Tables[1].KeysPerPacket != 1 {
		t.Errorf("route = %+v", spec.Tables[1])
	}
	if spec.Tables[2].Kind != MatchTernary {
		t.Errorf("acl = %+v", spec.Tables[2])
	}
	if len(spec.Registers) != 1 || spec.Registers[0].Cells != 1024 {
		t.Errorf("registers = %+v", spec.Registers)
	}
	if len(spec.Deps) != 2 || spec.Deps[0] != [2]string{"cache", "hits"} {
		t.Errorf("deps = %+v", spec.Deps)
	}
}

func TestParsedProgramCompilesEndToEnd(t *testing.T) {
	spec, err := Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The array field makes it ADCP-only.
	if _, err := Compile(spec, RMTTarget()); err == nil {
		t.Error("array program compiled for RMT")
	}
	pl, err := Compile(spec, ADCPTarget())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Tables["cache"].Replication != 1 {
		t.Errorf("placement %+v", pl.Tables["cache"])
	}
	if pl.Registers["hits"] <= pl.Tables["cache"].Stage {
		t.Error("dependency not honored through the text front-end")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing program", "field x: 8"},
		{"duplicate program", "program a\nprogram b"},
		{"program arity", "program"},
		{"field syntax", "program p\nfield broken"},
		{"field width", "program p\nfield x: 12"},
		{"field bad number", "program p\nfield x: zoo"},
		{"field empty name", "program p\nfield : 8"},
		{"array arity", "program p\narray"},
		{"table arity", "program p\ntable t exact"},
		{"table kind", "program p\ntable t fuzzy entries=4"},
		{"table attr", "program p\ntable t exact entries=4 color=red"},
		{"table attr syntax", "program p\ntable t exact entries"},
		{"table attr number", "program p\ntable t exact entries=lots"},
		{"table no entries", "program p\ntable t exact keys=2 keys=3"},
		{"register arity", "program p\nregister r"},
		{"register attr", "program p\nregister r size=4"},
		{"register number", "program p\nregister r cells=x"},
		{"after arity", "program p\nafter a"},
		{"unknown decl", "program p\nfrobnicate x"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), "line") && c.name != "missing program" {
			t.Errorf("%s: error lacks line number: %v", c.name, err)
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	spec, err := Parse("\n\n# header\nprogram p  # trailing comment\n\n  \n")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "p" {
		t.Errorf("name = %q", spec.Name)
	}
}
