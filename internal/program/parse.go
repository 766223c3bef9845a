package program

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/phv"
)

// Parse reads the textual program format into a Spec. The format is a
// minimal P4-flavored declaration language — one declaration per line:
//
//	program <name>
//	field <name>: 8|16|32          # scalar PHV field
//	array <name>                   # array PHV container (ADCP only)
//	table <name> exact|lpm|ternary entries=<n> [keys=<k>]
//	register <name> cells=<n>
//	after <a> <b>                  # place a strictly before b
//	# comment
//
// Example:
//
//	program kvcache
//	field kv_op: 8
//	array batch
//	table cache exact entries=32768 keys=8
//	register hits cells=1024
//	after cache hits
//
// The result still goes through Spec.Validate inside Compile; Parse only
// reports syntax errors, with line numbers.
func Parse(src string) (*Spec, error) {
	spec := &Spec{}
	sawProgram := false
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		errf := func(format string, args ...any) error {
			return fmt.Errorf("program: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "program":
			if len(fields) != 2 {
				return nil, errf("want 'program <name>'")
			}
			if sawProgram {
				return nil, errf("duplicate program declaration")
			}
			spec.Name = fields[1]
			sawProgram = true
		case "field":
			// "field name: width" — tolerate "name:" glued or separate.
			rest := strings.TrimSpace(strings.TrimPrefix(line, "field"))
			name, widthStr, ok := strings.Cut(rest, ":")
			if !ok {
				return nil, errf("want 'field <name>: <width>'")
			}
			name = strings.TrimSpace(name)
			width, err := strconv.Atoi(strings.TrimSpace(widthStr))
			if err != nil {
				return nil, errf("bad width %q", strings.TrimSpace(widthStr))
			}
			var w phv.Width
			switch width {
			case 8:
				w = phv.W8
			case 16:
				w = phv.W16
			case 32:
				w = phv.W32
			default:
				return nil, errf("width %d not one of 8, 16, 32", width)
			}
			if name == "" {
				return nil, errf("empty field name")
			}
			spec.Fields = append(spec.Fields, FieldSpec{Name: name, Width: w})
		case "array":
			if len(fields) != 2 {
				return nil, errf("want 'array <name>'")
			}
			spec.Fields = append(spec.Fields, FieldSpec{Name: fields[1], Array: true})
		case "table":
			if len(fields) < 4 {
				return nil, errf("want 'table <name> <kind> entries=<n> [keys=<k>]'")
			}
			t := TableSpec{Name: fields[1], KeysPerPacket: 1}
			switch fields[2] {
			case "exact":
				t.Kind = MatchExact
			case "lpm":
				t.Kind = MatchLPM
			case "ternary":
				t.Kind = MatchTernary
			default:
				return nil, errf("match kind %q not one of exact, lpm, ternary", fields[2])
			}
			for _, kv := range fields[3:] {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, errf("want key=value, got %q", kv)
				}
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, errf("bad number %q", val)
				}
				switch key {
				case "entries":
					t.Entries = n
				case "keys":
					t.KeysPerPacket = n
				default:
					return nil, errf("unknown table attribute %q", key)
				}
			}
			if t.Entries == 0 {
				return nil, errf("table %q missing entries=", t.Name)
			}
			spec.Tables = append(spec.Tables, t)
		case "register":
			if len(fields) != 3 {
				return nil, errf("want 'register <name> cells=<n>'")
			}
			key, val, ok := strings.Cut(fields[2], "=")
			if !ok || key != "cells" {
				return nil, errf("want cells=<n>, got %q", fields[2])
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, errf("bad number %q", val)
			}
			spec.Registers = append(spec.Registers, RegisterSpec{Name: fields[1], Cells: n})
		case "after":
			if len(fields) != 3 {
				return nil, errf("want 'after <a> <b>'")
			}
			spec.Deps = append(spec.Deps, [2]string{fields[1], fields[2]})
		default:
			return nil, errf("unknown declaration %q", fields[0])
		}
	}
	if !sawProgram {
		return nil, fmt.Errorf("program: missing 'program <name>' declaration")
	}
	return spec, nil
}
