package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// col declares one column of an experiment table: its header, how its
// cell renders, and what its value is to the metrics registry — the
// exp.<experiment>.<metric> series it is Set as, or the key of a label it
// puts on every series of its row (label text: the value's %v). A column
// without a header is recorded, never rendered: that is how a headline
// number that is not a printed column gets its name.
type col struct {
	head   string           // "" = not rendered
	cell   func(any) string // nil = %v; a []any value is a format and its arguments
	metric string
	label  string
}

// table is a stats.Table whose columns are declared once. AddRow renders a
// row and Sets its metric columns, labeled by its label columns, into the
// registry the table was built with: the experiment's hub's, or the
// point's own inside a sweep point; nil records nothing. Set, not
// accumulate, keeps re-running an experiment idempotent.
type table struct {
	*stats.Table
	cols []col
	reg  *telemetry.Registry
}

func newTable(reg *telemetry.Registry, title string, cols ...col) *table {
	var heads []string
	for _, c := range cols {
		if c.head != "" {
			heads = append(heads, c.head)
		}
	}
	return &table{Table: stats.NewTable(title, heads...), cols: cols, reg: reg}
}

// AddRow takes one value per declared column, in declaration order.
func (t *table) AddRow(values ...any) {
	if len(values) != len(t.cols) {
		panic(fmt.Sprintf("experiments: AddRow got %d values for %d columns", len(values), len(t.cols)))
	}
	cells := make([]string, 0, len(t.cols))
	labels := make([]telemetry.Label, 0, len(t.cols))
	for i, c := range t.cols {
		if c.head != "" {
			cells = append(cells, c.render(values[i]))
		}
		if c.label != "" {
			labels = append(labels, telemetry.L(c.label, fmt.Sprint(values[i])))
		}
	}
	if len(cells) > 0 {
		t.Table.AddRow(cells...)
	}
	for i, c := range t.cols {
		if c.metric != "" && t.reg != nil {
			t.reg.Set(c.metric, num(values[i]), labels...)
		}
	}
}

func (c col) render(v any) string {
	if c.cell != nil {
		return c.cell(v)
	}
	if a, ok := v.([]any); ok {
		return fmt.Sprintf(a[0].(string), a[1:]...)
	}
	return fmt.Sprint(v)
}

// num is a value as a series value: a number as itself, a bool as 0/1.
func num(v any) float64 {
	switch r := reflect.ValueOf(v); {
	case r.CanInt():
		return float64(r.Int())
	case r.CanUint():
		return float64(r.Uint())
	case r.CanFloat():
		return r.Float()
	case r.Kind() == reflect.Bool && r.Bool():
		return 1
	case r.Kind() == reflect.Bool:
		return 0
	}
	panic(fmt.Sprintf("experiments: a %T is not a metric value", v))
}

// Cell renderers: a format, a fraction as a percentage, a rate with SI
// suffixes, zero as text, a bool as yes/no.
func f(format string) func(any) string {
	return func(v any) string { return fmt.Sprintf(format, v) }
}

func pct(format string) func(any) string {
	return func(v any) string { return fmt.Sprintf(format, 100*num(v)) }
}

func si(v any) string { return stats.FormatSI(num(v)) }

func zeroAs(text string, render func(any) string) func(any) string {
	return func(v any) string {
		if num(v) == 0 {
			return text
		}
		return render(v)
	}
}

func yesNo(v any) string {
	if v.(bool) {
		return "yes"
	}
	return "no"
}
