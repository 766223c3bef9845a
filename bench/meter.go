package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// measurement is what a timed loop over one runner produced.
type measurement struct {
	unit   []float64 // raw wall seconds of each unit
	calibs []float64 // reference kernel seconds, sampled throughout the loop
	// mallocs and bytes are runtime.MemStats deltas summed over the units
	// only (verification allocates too, outside them).
	mallocs, bytes    uint64
	attempted, failed int
	events, retx      uint64
	rssMiB            float64 // peak over units that report one, else 0
	sim               string  // the first unit's simulated statistics
}

// calibEvery is how much unit time earns one run of the reference kernel
// (~0.08 s): calibration then costs about a seventh of the time measured,
// whether units take milliseconds or seconds.
const calibEvery = 500 * time.Millisecond

// measure runs units until the time budget would be overrun by one more,
// and at least minUnits. A unit of noticeable length starts from a
// collected heap, so that neither its time nor the peak resident set
// depends on how much garbage the previous one happened to leave; units of
// milliseconds come by the thousand and average that out themselves.
func measure(r runner, tr *tracer, calib calibrator, budget time.Duration, minUnits, maxUnits int) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	var err error
	if m.calibs, err = calib(2); err != nil {
		return nil, err
	}
	var lastIter, uncalibrated time.Duration
	for len(m.unit) < minUnits || time.Since(start)+lastIter <= budget && (maxUnits == 0 || len(m.unit) < maxUnits) {
		iter := time.Now()
		if err := r.prepare(); err != nil {
			return nil, err
		}
		if n := len(m.unit); n == 0 || m.unit[n-1] >= 0.05 {
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		err := r.unit(tr)
		wall := time.Since(t)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		m.unit = append(m.unit, wall.Seconds())
		st := r.verify()
		if st.mallocs == 0 {
			st.mallocs, st.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		}
		m.mallocs += st.mallocs
		m.bytes += st.bytes
		m.rssMiB = max(m.rssMiB, st.rssMiB)
		if len(m.unit) == 1 {
			m.sim = st.sim
		} else if st.sim != m.sim {
			// Same inputs, different simulated statistics: the simulator
			// is not deterministic, so nothing this unit did can be trusted.
			st.failed = st.attempted
		}
		m.attempted += st.attempted
		m.failed += st.failed
		m.events += st.events
		m.retx += st.retx
		uncalibrated += wall
		if n := min(int(uncalibrated/calibEvery), 8); n > 0 {
			more, err := calib(n)
			if err != nil {
				return nil, err
			}
			m.calibs = append(m.calibs, more...)
			uncalibrated = 0
		}
		lastIter = time.Since(iter)
	}
	return m, nil
}

// hostSeconds converts raw unit seconds to calibrated host seconds.
func (m *measurement) hostSeconds(raw float64) float64 { return calibrated(raw, m.calibs) }

// typicalUnit is the host seconds of an undisturbed unit: the mean of the
// faster half of the units. On the shared box this was sized on, what
// disturbs a unit (a neighbour, a page-fault storm) only ever makes it
// slower and is not tracked by the reference kernel; ten runs of agg-line
// spread 5.1 % (quartile distance over median) on the mean of all units
// and 2.8 % on the mean of the faster half. See README.md.
func (m *measurement) typicalUnit() float64 {
	s := append([]float64(nil), m.unit...)
	sort.Float64s(s)
	return m.hostSeconds(mean(s[:(len(s)+1)/2]))
}

func (m *measurement) digest() string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(m.sim)))
}

// selfPeakRSSMiB is this process's ru_maxrss, which Linux reports in KiB.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return sum(v) / float64(len(v)) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (q=0.5 of an even count is the mean of the middle two).
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }
