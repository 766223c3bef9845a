// Package floorplan is a g-cell routing-congestion estimator for the
// feasibility discussion of the paper's §4.
//
// Modern EDA tools organize the floorplan in a grid of g-cells and measure
// routing congestion as the wire demand crossing each cell against its
// capacity; congestion concentrates near heavily shared IP blocks such as
// shared memories. The ADCP's two traffic managers are exactly such blocks,
// and §4 argues their floorplan "should be spread across the layout and
// interleaved with other logic elements" instead of monolithic. This
// package routes both floorplans with a simple L-route global router and
// compares their peak g-cell congestion.
package floorplan

import "fmt"

// The comparison die: a GridW×GridH grid of cellCapacity-wire g-cells, 16
// ingress pipelines feeding TM1, 8 central pipelines between the TMs and 4
// egress pipelines after TM2, each pipeline↔TM bus WiresPerBus wide.
const (
	GridW, GridH = 64, 64
	WiresPerBus  = 256
	cellCapacity = 512
	ingressPipes = 16
	centralPipes = 8
	egressPipes  = 4
)

// grid is a g-cell grid with per-cell wire demand.
type grid struct {
	w, h     int
	capacity int // routable wires per cell
	demand   []int
}

// newGrid builds a w×h grid where each g-cell can route capacity wires.
func newGrid(w, h, capacity int) *grid {
	return &grid{w: w, h: h, capacity: capacity, demand: make([]int, w*h)}
}

// at returns the wire demand at cell (x, y).
func (g *grid) at(x, y int) int { return g.demand[y*g.w+x] }

// addDemand charges wires to a cell.
func (g *grid) addDemand(x, y, wires int) {
	if x < 0 || x >= g.w || y < 0 || y >= g.h {
		panic(fmt.Sprintf("floorplan: cell (%d,%d) outside %dx%d", x, y, g.w, g.h))
	}
	g.demand[y*g.w+x] += wires
}

// Point is a g-cell coordinate.
type Point struct{ X, Y int }

// routeL charges an L-route from a to b: horizontal first, then vertical.
func routeL(g *grid, a, b Point, wires int) {
	x, y := a.X, a.Y
	g.addDemand(x, y, wires)
	for x != b.X {
		if b.X > x {
			x++
		} else {
			x--
		}
		g.addDemand(x, y, wires)
	}
	for y != b.Y {
		if b.Y > y {
			y++
		} else {
			y--
		}
		g.addDemand(x, y, wires)
	}
}

// Report summarizes grid congestion: per-cell congestion is
// demand/capacity.
type Report struct {
	PeakCongestion float64
	PeakCell       Point
	MeanCongestion float64
	// Overflowed counts cells whose demand exceeds capacity — each is a
	// routing-closure problem the paper's §4 worries about.
	Overflowed int
	TotalCells int
}

func analyze(g *grid) *Report {
	r := &Report{TotalCells: g.w * g.h}
	var sum float64
	for y := 0; y < g.h; y++ {
		for x := 0; x < g.w; x++ {
			c := float64(g.at(x, y)) / float64(g.capacity)
			sum += c
			if c > r.PeakCongestion {
				r.PeakCongestion = c
				r.PeakCell = Point{X: x, Y: y}
			}
			if c > 1 {
				r.Overflowed++
			}
		}
	}
	r.MeanCongestion = sum / float64(r.TotalCells)
	return r
}

// Monolithic routes the floorplan §4 warns about: each TM is one
// area-efficient block in the middle of the die, and every pipeline routes
// its full bus to that single point — wire demand concentrates in the
// cells around the TMs.
func Monolithic() *Report {
	return route(func(x, _ int) Point { return Point{X: x, Y: GridH / 2} })
}

// Interleaved routes the floorplan §4 recommends: each TM is split into
// one slice per attached pipeline, placed on that pipeline's row, so buses
// stay short and demand spreads across the die.
func Interleaved() *Report {
	return route(func(x, y int) Point { return Point{X: x, Y: y} })
}

// route charges every pipeline↔TM bus onto a fresh die and reports its
// congestion; tm gives the pin, in TM column x, of the TM (or TM slice)
// that a pipeline on row y attaches to.
func route(tm func(x, y int) Point) *Report {
	g := newGrid(GridW, GridH, cellCapacity)
	ingX, cenX, egX := GridW/8, GridW/2, 7*GridW/8
	tm1X, tm2X := GridW/3, 2*GridW/3
	for i := 0; i < ingressPipes; i++ {
		y := spread(i, ingressPipes, GridH)
		routeL(g, Point{X: ingX, Y: y}, tm(tm1X, y), WiresPerBus)
	}
	for i := 0; i < centralPipes; i++ {
		cen := Point{X: cenX, Y: spread(i, centralPipes, GridH)}
		routeL(g, tm(tm1X, cen.Y), cen, WiresPerBus)
		routeL(g, cen, tm(tm2X, cen.Y), WiresPerBus)
	}
	for i := 0; i < egressPipes; i++ {
		y := spread(i, egressPipes, GridH)
		routeL(g, tm(tm2X, y), Point{X: egX, Y: y}, WiresPerBus)
	}
	return analyze(g)
}

// spread distributes n items evenly over [0, extent).
func spread(i, n, extent int) int {
	return (2*i + 1) * extent / (2 * n)
}
