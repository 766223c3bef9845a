// Command adcpc compiles a textual switch program (see program.Parse for
// the format) against an RMT or ADCP target and prints the placement
// report: stage assignment, table replication, SRAM cost, recirculation
// passes, and PHV pressure — or the reason the program is infeasible.
//
// Usage:
//
//	adcpc -target rmt  prog.txt
//	adcpc -target adcp prog.txt
//
// internal/program/testdata/kvcache.p4l is a demo program: a multi-key
// cache that RMT must replicate and ADCP serves from one copy.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/program"
	"repro/internal/stats"
)

func main() {
	target := flag.String("target", "adcp", "compilation target: rmt or adcp")
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "adcpc:", err)
		os.Exit(1)
	}
	spec, err := program.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "adcpc:", err)
		os.Exit(1)
	}
	var tgt program.Target
	switch *target {
	case "rmt":
		tgt = program.RMTTarget()
	case "adcp":
		tgt = program.ADCPTarget()
	default:
		fmt.Fprintf(os.Stderr, "adcpc: unknown target %q (rmt, adcp)\n", *target)
		os.Exit(2)
	}
	pl, err := program.Compile(spec, tgt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adcpc:", err)
		os.Exit(1)
	}
	fmt.Print(report(pl))
}

func report(pl *program.Placement) string {
	t := stats.NewTable(
		fmt.Sprintf("placement of %q on %s (%d stages used, %d pass(es)/packet, %d PHV bits)",
			pl.Program, pl.Target, pl.StagesUsed, pl.MaxPasses, pl.PHVBitsUsed),
		"resource", "stage", "replication", "SRAM entries",
	)
	names := make([]string, 0, len(pl.Tables))
	for n := range pl.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tp := pl.Tables[n]
		t.AddRow("table "+n, fmt.Sprintf("%d", tp.Stage),
			fmt.Sprintf("%d", tp.Replication), fmt.Sprintf("%d", tp.SRAMEntries))
	}
	regs := make([]string, 0, len(pl.Registers))
	for n := range pl.Registers {
		regs = append(regs, n)
	}
	sort.Strings(regs)
	for _, n := range regs {
		t.AddRow("register "+n, fmt.Sprintf("%d", pl.Registers[n]), "-", "-")
	}
	out := t.String()
	if pl.RecirculationOverhead > 0 {
		out += fmt.Sprintf("WARNING: %.0f%% of pipeline bandwidth burned by recirculation\n",
			100*pl.RecirculationOverhead)
	}
	return out
}
