package floorplan

import (
	"testing"
	"testing/quick"
)

func TestGridDemandAccounting(t *testing.T) {
	g := newGrid(8, 8, 10)
	routeL(g, Point{X: 0, Y: 0}, Point{X: 3, Y: 0}, 5)
	rep := analyze(g)
	// Cells (0,0)..(3,0) each carry 5 wires.
	for x := 0; x <= 3; x++ {
		if g.at(x, 0) != 5 {
			t.Errorf("demand(%d,0) = %d, want 5", x, g.at(x, 0))
		}
	}
	if g.at(4, 0) != 0 {
		t.Error("demand leaked past endpoint")
	}
	if rep.PeakCongestion != 0.5 {
		t.Errorf("peak = %v, want 0.5", rep.PeakCongestion)
	}
	if rep.Overflowed != 0 {
		t.Errorf("overflowed = %d", rep.Overflowed)
	}
}

func TestLRouteBothLegs(t *testing.T) {
	g := newGrid(8, 8, 100)
	routeL(g, Point{X: 1, Y: 1}, Point{X: 4, Y: 5}, 1)
	// Horizontal leg at y=1, then vertical at x=4.
	for x := 1; x <= 4; x++ {
		if g.at(x, 1) != 1 {
			t.Errorf("missing horizontal demand at (%d,1)", x)
		}
	}
	for y := 2; y <= 5; y++ {
		if g.at(4, y) != 1 {
			t.Errorf("missing vertical demand at (4,%d)", y)
		}
	}
	// Reverse direction works too.
	g2 := newGrid(8, 8, 100)
	routeL(g2, Point{X: 4, Y: 5}, Point{X: 1, Y: 1}, 1)
	if g2.at(1, 1) != 1 || g2.at(4, 5) != 1 {
		t.Error("reverse route endpoints uncharged")
	}
}

// A route leaving the grid is a bug in the floorplan, not wire demand
// charged to some other row.
func TestGridPanics(t *testing.T) {
	mustPanicFP(t, func() { routeL(newGrid(4, 4, 1), Point{X: 0, Y: 0}, Point{X: 4, Y: 0}, 1) })
	mustPanicFP(t, func() { routeL(newGrid(4, 4, 1), Point{X: 3, Y: 3}, Point{X: 3, Y: -1}, 1) })
}

func mustPanicFP(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestOverflowDetection(t *testing.T) {
	g := newGrid(4, 4, 10)
	routeL(g, Point{X: 0, Y: 0}, Point{X: 2, Y: 0}, 25)
	rep := analyze(g)
	if rep.Overflowed != 3 {
		t.Errorf("overflowed = %d, want 3 cells at 2.5×", rep.Overflowed)
	}
	if rep.PeakCongestion != 2.5 {
		t.Errorf("peak = %v", rep.PeakCongestion)
	}
}

func TestMonolithicVsInterleaved(t *testing.T) {
	// §4's claim: spreading TM slices across the layout lowers congestion
	// versus monolithic TM blocks.
	mono, inter := Monolithic(), Interleaved()
	if mono.PeakCongestion <= inter.PeakCongestion {
		t.Errorf("monolithic peak %.3f ≤ interleaved peak %.3f — §4 claim violated",
			mono.PeakCongestion, inter.PeakCongestion)
	}
	// The gap should be substantial (the monolithic TM concentrates ~all
	// ingress buses into a handful of cells).
	if mono.PeakCongestion < 2*inter.PeakCongestion {
		t.Errorf("expected ≥2× peak gap, got mono=%.3f inter=%.3f",
			mono.PeakCongestion, inter.PeakCongestion)
	}
	t.Logf("peak congestion: monolithic=%.3f interleaved=%.3f (overflowed cells %d vs %d)",
		mono.PeakCongestion, inter.PeakCongestion, mono.Overflowed, inter.Overflowed)
}

func TestSpreadEven(t *testing.T) {
	ys := make(map[int]bool)
	for i := 0; i < 8; i++ {
		y := spread(i, 8, 64)
		if y < 0 || y >= 64 {
			t.Fatalf("spread out of range: %d", y)
		}
		if ys[y] {
			t.Fatalf("spread collision at %d", y)
		}
		ys[y] = true
	}
}

// Property: whatever is routed, mean congestion never exceeds peak, the
// peak sits at the cell that carries it, overflow stays within the grid,
// and the report covers every cell.
func TestReportConsistencyProperty(t *testing.T) {
	f := func(wires uint8, ax, ay, bx, by uint8) bool {
		g := newGrid(16, 16, 32)
		routeL(g, Point{X: int(ax % 16), Y: int(ay % 16)}, Point{X: int(bx % 16), Y: int(by % 16)}, int(wires)+1)
		routeL(g, Point{X: int(by % 16), Y: int(ax % 16)}, Point{X: int(ay % 16), Y: int(bx % 16)}, int(wires)%7+1)
		r := analyze(g)
		return r.MeanCongestion <= r.PeakCongestion+1e-9 &&
			r.PeakCongestion == float64(g.at(r.PeakCell.X, r.PeakCell.Y))/32 &&
			r.Overflowed >= 0 && r.Overflowed <= r.TotalCells &&
			r.TotalCells == 16*16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	for _, r := range []*Report{Monolithic(), Interleaved()} {
		if r.MeanCongestion > r.PeakCongestion || r.TotalCells != GridW*GridH {
			t.Errorf("die report inconsistent: %+v", r)
		}
	}
}

func BenchmarkCompareFloorplans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Monolithic()
		Interleaved()
	}
}
