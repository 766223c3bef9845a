package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// CalibRefS is the reference duration of calib(): a calibrated second is
// a wall second on a box where calib() takes exactly this long. It only
// fixes the scale of calibrated numbers; changing it (or calib itself)
// breaks comparability with every committed result.
const CalibRefS = 0.080

// calibChecksum pins calib()'s result, so an accidental edit of the
// kernel fails the tests instead of silently shifting every number.
const calibChecksum = 0x63f59fcaccb34b90

type calibNode struct {
	a, b uint64
	next *calibNode
}

// calib is the fixed reference kernel that host time is normalised by.
// Half compute (10 M xorshift steps scattering into a 512 KiB table), half
// allocator (400 k small objects linked into a list and a map, both
// dropped every 1024), because the simulator's own cost is split the same
// way: a compute-only kernel tracked the box's drift about half as well
// (see README.md, "Calibrated seconds").
func calib() uint64 {
	table := make([]uint64, 1<<16)
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(1<<16-1)] += x
	}
	var sum uint64
	for _, v := range table {
		sum = sum*31 + v
	}
	var head *calibNode
	var m map[uint64]*calibNode
	for i := 0; i < 400_000; i++ {
		if i%1024 == 0 {
			for n := head; n != nil; n = n.next {
				sum += n.a ^ n.b
			}
			sum += uint64(len(m))
			head, m = nil, make(map[uint64]*calibNode)
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &calibNode{a: x, b: uint64(i), next: head}
		head = n
		m[x&0xfff] = n
	}
	return sum + uint64(len(m))
}

// timeCalib runs the kernel once and returns its wall seconds.
func timeCalib() float64 {
	t := time.Now()
	if calib() != calibChecksum {
		panic("bench: calibration kernel checksum changed")
	}
	return time.Since(t).Seconds()
}

// calibrator returns n timings of the reference kernel, in seconds.
type calibrator func(n int) ([]float64, error)

// calibHere times the kernel in this process: for the tests, and for the
// child calibIn spawns.
func calibHere(n int) ([]float64, error) {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = timeCalib()
	}
	return samples, nil
}

// calibOff skips the kernel and reports the reference time, which leaves
// host seconds raw: for -quick, where no number is looked at.
func calibOff(n int) ([]float64, error) {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = CalibRefS
	}
	return samples, nil
}

// calibIn times the kernel in a freshly spawned process of exe (this
// program, run with -calib n). Inside the harness the kernel's allocations
// trigger collections that mark whatever the workload holds live, so its
// time measures the workload's heap instead of the box: on kv-get's
// ~0.7 GiB heap that alone spread calibrated ops_per_s by 21 % over ten
// runs whose raw readings spread 2 %. (Turning the collector off around an
// in-process kernel fixes that too, but its garbage then piles up: it took
// daemon-jobs' peak resident set from 13 MiB to 190.)
func calibIn(exe string) calibrator {
	return func(n int) ([]float64, error) {
		out, err := exec.Command(exe, "-calib", strconv.Itoa(n)).Output()
		if err != nil {
			return nil, fmt.Errorf("calibration child: %w", err)
		}
		var samples []float64
		for _, f := range strings.Fields(string(out)) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("calibration child printed %q", f)
			}
			samples = append(samples, v)
		}
		if len(samples) != n {
			return nil, fmt.Errorf("calibration child printed %d samples, want %d", len(samples), n)
		}
		return samples, nil
	}
}

// calibrated converts raw seconds to calibrated seconds given the
// kernel timings interleaved with the measurement.
func calibrated(raw float64, calibs []float64) float64 {
	return raw * CalibRefS / mean(calibs)
}
