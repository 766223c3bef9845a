package main

import (
	"math"
	"testing"
)

func TestCalibIsDeterministic(t *testing.T) {
	for i := 0; i < 2; i++ {
		if got := calib(); got != calibChecksum {
			t.Fatalf("calib() = %#x, want the pinned %#x: the reference kernel changed, and with it every calibrated number", got, uint64(calibChecksum))
		}
	}
}

func TestCalibrated(t *testing.T) {
	if CalibRefS != 0.080 {
		t.Fatalf("CalibRefS = %v: the scale of every committed result is 0.080", CalibRefS)
	}
	cases := []struct {
		name   string
		wall   float64
		calibs []float64
		want   float64
	}{
		{"box at reference speed", 2, []float64{0.080, 0.080}, 2},
		{"box twice as slow", 2, []float64{0.160}, 1},
		{"box twice as fast", 2, []float64{0.040, 0.040, 0.040}, 4},
		{"samples are averaged", 3, []float64{0.040, 0.120}, 3},
	}
	for _, c := range cases {
		if got := calibrated(c.wall, c.calibs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: calibrated(%v, %v) = %v, want %v", c.name, c.wall, c.calibs, got, c.want)
		}
	}
	// The typical unit is the mean of the faster half, calibrated.
	m := &measurement{unit: []float64{5, 1, 9, 3, 2}, calibs: []float64{0.160}}
	if got := m.typicalUnit(); got != 1 {
		t.Errorf("typicalUnit of %v on a box twice as slow = %v, want mean(1,2,3)/2 = 1", m.unit, got)
	}
	m = &measurement{unit: []float64{4, 2}, calibs: []float64{0.080}}
	if got := m.typicalUnit(); got != 2 {
		t.Errorf("typicalUnit of two units = %v, want the faster one", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 12], n=4): two sets extrapolate
	q1, q2, q3 = quartiles([]float64{12, 10})
	if q1 != 9.5 || q2 != 11 || q3 != 12.5 {
		t.Errorf("quartiles of two = %v %v %v, want 9.5 11 12.5", q1, q2, q3)
	}
}
