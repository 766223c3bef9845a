package tm

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
)

func mkPkt(payload int) *packet.Packet {
	return packet.BuildRaw(packet.Header{DstPort: 1}, payload)
}

func TestSharedMemoryFIFO(t *testing.T) {
	m := NewSharedMemoryTM(2, 1<<20)
	a, b, c := mkPkt(1), mkPkt(2), mkPkt(3)
	m.Enqueue(0, a)
	m.Enqueue(0, b)
	m.Enqueue(1, c)
	if m.Pending() != 3 || m.QueueLen(0) != 2 || m.QueueLen(1) != 1 {
		t.Fatal("queue lengths wrong")
	}
	if got := m.Dequeue(0); got != a {
		t.Error("FIFO order violated")
	}
	if got := m.Dequeue(0); got != b {
		t.Error("FIFO order violated")
	}
	if m.Dequeue(0) != nil {
		t.Error("empty dequeue returned a packet")
	}
	if got := m.Dequeue(1); got != c {
		t.Error("wrong packet on queue 1")
	}
	if m.Enqueued() != 3 || m.Dequeued() != 3 || m.Dropped() != 0 {
		t.Error("counters wrong")
	}
}

func TestSharedMemoryDropOnOverflow(t *testing.T) {
	// Budget of exactly two minimum-size frames.
	m := NewSharedMemoryTM(1, 2*packet.MinWireLen)
	if !m.Enqueue(0, mkPkt(0)) || !m.Enqueue(0, mkPkt(0)) {
		t.Fatal("enqueue within budget failed")
	}
	if m.Enqueue(0, mkPkt(0)) {
		t.Error("enqueue beyond budget accepted")
	}
	if m.Dropped() != 1 {
		t.Errorf("Dropped = %d", m.Dropped())
	}
	// Draining frees budget.
	m.Dequeue(0)
	if !m.Enqueue(0, mkPkt(0)) {
		t.Error("enqueue after drain failed")
	}
}

func TestSharedMemoryOccupancyAccounting(t *testing.T) {
	m := NewSharedMemoryTM(2, 1<<20)
	big := mkPkt(1000)
	m.Enqueue(0, big)
	if m.Occupancy() != big.WireLen() {
		t.Errorf("Occupancy = %d, want %d", m.Occupancy(), big.WireLen())
	}
	m.Enqueue(1, mkPkt(0))
	peak := big.WireLen() + packet.MinWireLen
	if m.PeakOccupancy() != peak {
		t.Errorf("Peak = %d, want %d", m.PeakOccupancy(), peak)
	}
	m.Dequeue(0)
	m.Dequeue(1)
	if m.Occupancy() != 0 {
		t.Errorf("Occupancy after drain = %d", m.Occupancy())
	}
	if m.PeakOccupancy() != peak {
		t.Error("peak should not decay")
	}
}

func TestSharedMemoryPanics(t *testing.T) {
	mustPanicTM(t, func() { NewSharedMemoryTM(0, 10) })
	mustPanicTM(t, func() { NewSharedMemoryTM(1, 0) })
	m := NewSharedMemoryTM(1, 100)
	mustPanicTM(t, func() { m.Enqueue(5, mkPkt(0)) })
}

func mustPanicTM(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

// Property: conservation — packets in = packets out + drops + pending.
func TestSharedMemoryConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewSharedMemoryTM(4, 4096)
		var in, out uint64
		for _, op := range ops {
			q := int(op % 4)
			if op%3 == 0 {
				if m.Dequeue(q) != nil {
					out++
				}
			} else {
				in++
				m.Enqueue(q, mkPkt(int(op%200)))
			}
		}
		return in == m.Dropped()+out+uint64(m.Pending())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPIFOOrder(t *testing.T) {
	p := NewPIFO(0)
	ranks := []uint64{5, 1, 9, 3, 7}
	for _, r := range ranks {
		if !p.Push(mkPkt(int(r)), r) {
			t.Fatal("push failed")
		}
	}
	if p.Len() != 5 {
		t.Fatalf("Len = %d", p.Len())
	}
	var got []uint64
	for {
		_, r, ok := p.Pop()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("PIFO emitted %v, not sorted", got)
	}
}

func TestPIFOTieFIFO(t *testing.T) {
	p := NewPIFO(0)
	a, b := mkPkt(1), mkPkt(2)
	p.Push(a, 7)
	p.Push(b, 7)
	first, _, _ := p.Pop()
	if first != a {
		t.Error("equal ranks did not dequeue in arrival order")
	}
}

func TestPIFOCapacity(t *testing.T) {
	p := NewPIFO(2)
	p.Push(mkPkt(0), 1)
	p.Push(mkPkt(0), 2)
	if p.Push(mkPkt(0), 3) {
		t.Error("push beyond capacity accepted")
	}
	p.Pop()
	if !p.Push(mkPkt(0), 3) {
		t.Error("push after pop failed")
	}
}

func TestPIFOEmptyPop(t *testing.T) {
	p := NewPIFO(0)
	if _, _, ok := p.Pop(); ok {
		t.Error("empty pop claimed success")
	}
}

// Property: PIFO dequeue order equals sorted insert order (stable on ties).
func TestPIFOSortProperty(t *testing.T) {
	f := func(ranks []uint16) bool {
		p := NewPIFO(0)
		for _, r := range ranks {
			p.Push(mkPkt(0), uint64(r))
		}
		prev := uint64(0)
		for i := 0; i < len(ranks); i++ {
			_, r, ok := p.Pop()
			if !ok || r < prev {
				return false
			}
			prev = r
		}
		_, _, ok := p.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeTMGlobalOrder(t *testing.T) {
	m := NewMergeTM()
	// Three flows, each sorted.
	flows := map[uint64][]uint64{
		1: {1, 4, 7, 10},
		2: {2, 5, 8},
		3: {0, 3, 6, 9, 11},
	}
	total := 0
	for f, ranks := range flows {
		for _, r := range ranks {
			if err := m.Push(f, mkPkt(0), r); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	if m.Len() != total || m.Flows() != 3 {
		t.Fatalf("Len=%d Flows=%d", m.Len(), m.Flows())
	}
	var got []uint64
	for {
		_, _, r, ok := m.Pop()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != total {
		t.Fatalf("popped %d, want %d", len(got), total)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("merge output not sorted: %v", got)
		}
	}
}

func TestMergeTMRejectsRankRegression(t *testing.T) {
	m := NewMergeTM()
	if err := m.Push(1, mkPkt(0), 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Push(1, mkPkt(0), 3); err == nil {
		t.Error("rank regression accepted")
	}
	// Equal rank is fine (non-decreasing).
	if err := m.Push(1, mkPkt(0), 5); err != nil {
		t.Errorf("equal rank rejected: %v", err)
	}
}

func TestMergeTMInterleavedPushPop(t *testing.T) {
	m := NewMergeTM()
	m.Push(1, mkPkt(0), 1)
	m.Push(2, mkPkt(0), 2)
	_, f, r, _ := m.Pop()
	if f != 1 || r != 1 {
		t.Fatalf("first pop flow=%d rank=%d", f, r)
	}
	m.Push(1, mkPkt(0), 10)
	_, f, r, _ = m.Pop()
	if f != 2 || r != 2 {
		t.Fatalf("second pop flow=%d rank=%d", f, r)
	}
	_, f, r, _ = m.Pop()
	if f != 1 || r != 10 {
		t.Fatalf("third pop flow=%d rank=%d", f, r)
	}
	if _, _, _, ok := m.Pop(); ok {
		t.Error("pop from empty merge succeeded")
	}
}

// Property: merging any set of sorted flows yields a sorted stream with all
// elements (the §3.1 first-TM semantics).
func TestMergeTMProperty(t *testing.T) {
	f := func(raw [][]uint16) bool {
		m := NewMergeTM()
		total := 0
		for fi, ranks := range raw {
			if fi >= 8 {
				break
			}
			rs := make([]uint64, len(ranks))
			for i, r := range ranks {
				rs[i] = uint64(r)
			}
			sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
			for _, r := range rs {
				if err := m.Push(uint64(fi), mkPkt(0), r); err != nil {
					return false
				}
				total++
			}
		}
		prev := uint64(0)
		n := 0
		for {
			_, _, r, ok := m.Pop()
			if !ok {
				break
			}
			if r < prev {
				return false
			}
			prev = r
			n++
		}
		return n == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestHashPartitioner(t *testing.T) {
	h := NewHashPartitioner(8)
	counts := make([]int, 8)
	for k := uint64(0); k < 8000; k++ {
		p := h.Place(k)
		if p < 0 || p >= 8 {
			t.Fatalf("Place out of range: %d", p)
		}
		counts[p]++
		if h.Place(k) != p {
			t.Fatal("Place not stable")
		}
	}
	for i, c := range counts {
		if c < 700 {
			t.Errorf("pipeline %d underloaded: %d/8000", i, c)
		}
	}
	mustPanicTM(t, func() { NewHashPartitioner(0) })
}

// Property: the hash partitioner covers exactly [0, n) and is
// deterministic.
func TestPartitionerRangeProperty(t *testing.T) {
	f := func(key uint64, nRaw uint8) bool {
		n := int(nRaw)%16 + 1
		p := NewHashPartitioner(n)
		v := p.Place(key)
		return v >= 0 && v < n && p.Place(key) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPIFOPushPop(b *testing.B) {
	p := NewPIFO(0)
	pkt := mkPkt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Push(pkt, uint64(i%1000))
		if i%2 == 1 {
			p.Pop()
		}
	}
}

func BenchmarkMergeTM8Flows(b *testing.B) {
	m := NewMergeTM()
	pkt := mkPkt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Push(uint64(i%8), pkt, uint64(i))
		if i%2 == 1 {
			m.Pop()
		}
	}
}

func TestSharedMemoryObserverEvents(t *testing.T) {
	m := NewSharedMemoryTM(2, 2*packet.MinWireLen)
	var events []Event
	m.SetObserver(func(ev Event) { events = append(events, ev) })
	a, b := mkPkt(0), mkPkt(0)
	m.Enqueue(0, a)
	m.Enqueue(1, b)
	m.Enqueue(0, mkPkt(0)) // over budget → drop
	m.Dequeue(1)
	if len(events) != 4 {
		t.Fatalf("events = %d: %v", len(events), events)
	}
	wl := a.WireLen()
	// Without a clock installed, every event reports WaitPs -1 (unknown).
	want := []Event{
		{Op: OpEnqueue, Output: 0, Bytes: wl, OccupancyBytes: wl, WaitPs: -1},
		{Op: OpEnqueue, Output: 1, Bytes: wl, OccupancyBytes: 2 * wl, WaitPs: -1},
		{Op: OpDrop, Output: 0, Bytes: wl, OccupancyBytes: 2 * wl, WaitPs: -1},
		{Op: OpDequeue, Output: 1, Bytes: wl, OccupancyBytes: wl, WaitPs: -1},
	}
	for i, w := range want {
		if events[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, events[i], w)
		}
	}
	// Every event's occupancy matches the TM's accounting at that moment:
	// the final one must agree with the live Occupancy.
	if last := events[len(events)-1]; last.OccupancyBytes != m.Occupancy() {
		t.Errorf("final occupancy %d, TM says %d", last.OccupancyBytes, m.Occupancy())
	}
}

// With a clock installed, dequeues report the simulated time the packet
// spent buffered; packets enqueued before the clock existed report -1.
func TestSharedMemoryQueueingDelay(t *testing.T) {
	m := NewSharedMemoryTM(1, 1<<20)
	m.Enqueue(0, mkPkt(0)) // pre-clock: no timestamp
	var now sim.Time
	m.SetClock(func() sim.Time { return now })
	now = 100
	m.Enqueue(0, mkPkt(0))
	now = 250
	m.Enqueue(0, mkPkt(0))

	var waits []int64
	m.SetObserver(func(ev Event) {
		if ev.Op == OpDequeue {
			waits = append(waits, ev.WaitPs)
		}
	})
	now = 1000
	m.Dequeue(0) // pre-clock packet
	m.Dequeue(0) // waited 1000-100
	now = 1500
	m.Dequeue(0) // waited 1500-250
	want := []int64{-1, 900, 1250}
	if len(waits) != len(want) {
		t.Fatalf("waits = %v, want %v", waits, want)
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Errorf("wait %d = %d, want %d", i, waits[i], want[i])
		}
	}
}

func TestSharedMemoryObserverDisarm(t *testing.T) {
	m := NewSharedMemoryTM(1, 1<<20)
	n := 0
	m.SetObserver(func(Event) { n++ })
	m.Enqueue(0, mkPkt(1))
	m.SetObserver(nil)
	m.Enqueue(0, mkPkt(1))
	m.Dequeue(0)
	if n != 1 {
		t.Errorf("observer fired %d times after disarm, want 1", n)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpEnqueue: "enqueue", OpDequeue: "dequeue", OpDrop: "drop", Op(9): "Op(9)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", uint8(op), got, want)
		}
	}
}
