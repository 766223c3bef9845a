// Package tm implements the traffic managers of both architectures.
//
// An RMT switch has one traffic manager (TM): a shared-memory,
// output-buffered scheduler that moves packets from ingress pipelines to
// egress pipelines (paper §2). ADCP adds a second TM (§3.1), and — because
// the first TM now sits in front of the global partitioned area — upgrades
// it from a pure scheduler to an application-defined element that can
// partition coflow data across central pipelines (by hash or range) and
// merge per-flow sorted streams while preserving order. This package
// provides all of those building blocks:
//
//   - SharedMemoryTM: classic output-buffered scheduler with a byte budget.
//   - PIFO: a push-in-first-out programmable priority queue (Sivaraman et
//     al.), the mechanism behind "expanding the semantics of what we
//     consider scheduling in the TM".
//   - MergeTM: order-preserving merge of per-flow sorted streams.
//   - HashPartitioner: application-defined placement of data onto central
//     pipelines, by a hash over each element's key.
package tm

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Op classifies a TM observer event.
type Op uint8

// Observer operations.
const (
	OpEnqueue Op = iota
	OpDequeue
	OpDrop
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpEnqueue:
		return "enqueue"
	case OpDequeue:
		return "dequeue"
	case OpDrop:
		return "drop"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Event describes one buffer operation: the queue it touched, the packet's
// wire length, and the shared-pool occupancy after the operation.
type Event struct {
	Op             Op
	Output         int
	Bytes          int
	OccupancyBytes int
	// WaitPs is the simulated queueing delay of a dequeued packet — how
	// long it sat buffered. Valid only for OpDequeue on a TM with a clock
	// installed (SetClock); -1 otherwise.
	WaitPs int64
}

// Observer receives one Event per enqueue, dequeue, and drop.
type Observer func(ev Event)

// SharedMemoryTM is an output-buffered scheduler backed by one shared
// memory pool: per-output FIFO queues that together may hold at most
// bufferBytes of packet data. Enqueueing beyond the budget drops the packet
// (tail drop), which the caller observes and the stats record.
//
// Queues are ring-ish buffers: dequeue advances a head index instead of
// reslicing, and a fully drained queue is reset to reuse its backing
// array. The drain-until-empty pattern the switches use therefore stops
// allocating once the queues reach their working-set size.
type SharedMemoryTM struct {
	queues    [][]*packet.Packet
	heads     []int // first live element of each queue
	bufBytes  int
	usedBytes int

	enqueued  uint64
	dequeued  uint64
	dropped   uint64
	peakBytes int

	obs Observer

	// clock, when set, timestamps enqueues so dequeues can report the
	// packet's queueing delay (Event.WaitPs). times mirrors queues, with
	// its own heads (the clock can be installed mid-run, so the two can
	// hold different element counts).
	clock  func() sim.Time
	times  [][]sim.Time
	theads []int
}

// NewSharedMemoryTM builds a TM with numOutputs queues sharing bufferBytes.
func NewSharedMemoryTM(numOutputs, bufferBytes int) *SharedMemoryTM {
	if numOutputs <= 0 || bufferBytes <= 0 {
		panic("tm: non-positive TM geometry")
	}
	return &SharedMemoryTM{
		queues:   make([][]*packet.Packet, numOutputs),
		heads:    make([]int, numOutputs),
		bufBytes: bufferBytes,
	}
}

// SetObserver installs obs on every buffer operation; nil removes it. The
// observer costs one nil check per operation when unset.
func (t *SharedMemoryTM) SetObserver(obs Observer) { t.obs = obs }

// SetClock installs the simulated-time source used to measure per-packet
// queueing delay; nil removes it (and stops the per-packet timestamping).
// Packets already buffered when the clock is installed report WaitPs -1:
// their timestamp slots are back-filled with a sentinel so the timestamp
// queue stays aligned with the packet queue.
func (t *SharedMemoryTM) SetClock(clock func() sim.Time) {
	t.clock = clock
	if clock == nil {
		return
	}
	if t.times == nil {
		t.times = make([][]sim.Time, len(t.queues))
		t.theads = make([]int, len(t.queues))
	}
	for out, q := range t.queues {
		for len(t.times[out])-t.theads[out] < len(q)-t.heads[out] {
			t.times[out] = append(t.times[out], -1)
		}
	}
}

// Enqueue appends p to output queue out. It returns false (and drops the
// packet) when the shared buffer cannot hold it.
func (t *SharedMemoryTM) Enqueue(out int, p *packet.Packet) bool {
	if out < 0 || out >= len(t.queues) {
		panic(fmt.Sprintf("tm: enqueue to output %d of %d", out, len(t.queues)))
	}
	n := p.WireLen()
	if t.usedBytes+n > t.bufBytes {
		t.dropped++
		if t.obs != nil {
			t.obs(Event{Op: OpDrop, Output: out, Bytes: n, OccupancyBytes: t.usedBytes, WaitPs: -1})
		}
		return false
	}
	t.queues[out] = append(t.queues[out], p)
	if t.clock != nil {
		t.times[out] = append(t.times[out], t.clock())
	}
	t.usedBytes += n
	if t.usedBytes > t.peakBytes {
		t.peakBytes = t.usedBytes
	}
	t.enqueued++
	if t.obs != nil {
		t.obs(Event{Op: OpEnqueue, Output: out, Bytes: n, OccupancyBytes: t.usedBytes, WaitPs: -1})
	}
	return true
}

// Dequeue removes and returns the head of queue out, or nil when empty.
func (t *SharedMemoryTM) Dequeue(out int) *packet.Packet {
	q := t.queues[out]
	h := t.heads[out]
	if h >= len(q) {
		return nil
	}
	p := q[h]
	q[h] = nil
	if h+1 == len(q) {
		t.queues[out] = q[:0]
		t.heads[out] = 0
	} else {
		t.heads[out] = h + 1
	}
	wait := int64(-1)
	if t.clock != nil && t.theads[out] < len(t.times[out]) {
		th := t.theads[out]
		if at := t.times[out][th]; at >= 0 {
			wait = int64(t.clock() - at)
		}
		if th+1 == len(t.times[out]) {
			t.times[out] = t.times[out][:0]
			t.theads[out] = 0
		} else {
			t.theads[out] = th + 1
		}
	}
	t.usedBytes -= p.WireLen()
	t.dequeued++
	if t.obs != nil {
		t.obs(Event{Op: OpDequeue, Output: out, Bytes: p.WireLen(), OccupancyBytes: t.usedBytes, WaitPs: wait})
	}
	return p
}

// QueueLen returns the number of packets waiting on output out.
func (t *SharedMemoryTM) QueueLen(out int) int { return len(t.queues[out]) - t.heads[out] }

// Occupancy returns the bytes currently buffered.
func (t *SharedMemoryTM) Occupancy() int { return t.usedBytes }

// PeakOccupancy returns the high-water mark in bytes.
func (t *SharedMemoryTM) PeakOccupancy() int { return t.peakBytes }

// Enqueued returns accepted packets.
func (t *SharedMemoryTM) Enqueued() uint64 { return t.enqueued }

// Dequeued returns drained packets.
func (t *SharedMemoryTM) Dequeued() uint64 { return t.dequeued }

// Dropped returns tail-dropped packets.
func (t *SharedMemoryTM) Dropped() uint64 { return t.dropped }

// Counters is the TM's checkpointable accounting. Buffered packets are
// transient (checkpoints are taken at packet boundaries, when the shared
// memory is empty); the counters are what persists.
type Counters struct {
	Enqueued, Dequeued, Dropped uint64
	PeakBytes                   int
}

// Counters exports the TM's accounting.
func (t *SharedMemoryTM) Counters() Counters {
	return Counters{
		Enqueued:  t.enqueued,
		Dequeued:  t.dequeued,
		Dropped:   t.dropped,
		PeakBytes: t.peakBytes,
	}
}

// RestoreCounters overwrites the TM's accounting from a checkpoint. The
// buffer must be empty (a checkpoint never captures in-flight packets).
func (t *SharedMemoryTM) RestoreCounters(c Counters) error {
	if t.Pending() != 0 {
		return fmt.Errorf("tm: restore with %d packets buffered", t.Pending())
	}
	t.enqueued = c.Enqueued
	t.dequeued = c.Dequeued
	t.dropped = c.Dropped
	t.peakBytes = c.PeakBytes
	return nil
}

// Pending returns total packets buffered across all queues.
func (t *SharedMemoryTM) Pending() int {
	n := 0
	for out, q := range t.queues {
		n += len(q) - t.heads[out]
	}
	return n
}
