package program

import (
	"math/bits"
	"os"
	"testing"
)

// FuzzParse feeds program text — what adcpc reads from disk — through
// Parse, then Compile on both targets. Nothing may panic, and every
// accepted placement must keep its books: a table's SRAM entries are
// exactly entries × copies (no wrapped product), no stage holds more SRAM
// entries or register cells than it has, and the passes are the keys over
// what one traversal matches (copies on RMT, the array width on ADCP),
// rounded up.
func FuzzParse(f *testing.F) {
	kvcache, err := os.ReadFile("testdata/kvcache.p4l")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(kvcache))
	// The same program without comments, under another name.
	f.Add(`# Multi-key cache with routing and an ACL.
program democache
field kv_op: 8
field coflow_id: 32
table cache exact entries=16384 keys=8
table route lpm entries=1024
table acl ternary entries=256
register hits cells=1024
after cache hits
`)
	f.Add("program huge\ntable t exact entries=4611686018427387904 keys=4\n")
	f.Add("program wide\ntable t exact entries=1 keys=9223372036854775807\n")
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			return
		}
		for _, target := range []Target{RMTTarget(), ADCPTarget()} {
			pl, err := Compile(spec, target)
			if err != nil {
				continue
			}
			sram := make([]int, target.Stages)
			cells := make([]int, target.Stages)
			for _, tb := range spec.Tables {
				tp := pl.Tables[tb.Name]
				hi, lo := bits.Mul64(uint64(tb.Entries), uint64(tp.Replication))
				if hi != 0 || lo != uint64(tp.SRAMEntries) {
					t.Fatalf("%s: table %q: %d SRAM entries for %d entries × %d copies", target.Name, tb.Name, tp.SRAMEntries, tb.Entries, tp.Replication)
				}
				perPass := tp.Replication
				if target.ArrayWidth > 0 {
					perPass = target.ArrayWidth
				}
				want := tb.KeysPerPacket / perPass
				if tb.KeysPerPacket%perPass != 0 {
					want++
				}
				if tp.Passes != want {
					t.Fatalf("%s: table %q: %d passes for %d keys at %d per pass", target.Name, tb.Name, tp.Passes, tb.KeysPerPacket, perPass)
				}
				sram[tp.Stage] += tp.SRAMEntries
			}
			for _, r := range spec.Registers {
				cells[pl.Registers[r.Name]] += r.Cells
			}
			for s := range sram {
				if sram[s] > target.EntriesPerStage || cells[s] > target.RegisterCells {
					t.Fatalf("%s: stage %d holds %d SRAM entries and %d register cells", target.Name, s, sram[s], cells[s])
				}
			}
		}
	})
}
