package tracefile

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

func sampleWorkload(t *testing.T) []workload.Injection {
	t.Helper()
	injs, err := workload.ML(workload.MLParams{
		CoflowID: 1, Workers: 3, ModelSize: 32, ValuesPerPacket: 8,
		Gap: 100 * sim.Nanosecond, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return injs
}

func TestRoundTrip(t *testing.T) {
	injs := sampleWorkload(t)
	var buf bytes.Buffer
	if err := WriteAll(&buf, injs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(injs) {
		t.Fatalf("read %d records, want %d", len(got), len(injs))
	}
	for i := range injs {
		if got[i].Src != injs[i].Src || got[i].At != injs[i].At {
			t.Fatalf("record %d metadata differs", i)
		}
		if !bytes.Equal(got[i].Pkt.Data, injs[i].Pkt.Data) {
			t.Fatalf("record %d bytes differ", i)
		}
		// Replayed packets decode identically.
		var a, b packet.Decoded
		if err := a.DecodePacket(injs[i].Pkt); err != nil {
			t.Fatal(err)
		}
		if err := b.DecodePacket(got[i].Pkt); err != nil {
			t.Fatal(err)
		}
		if a.Base != b.Base {
			t.Fatalf("record %d headers differ", i)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(Magic) {
		t.Errorf("empty trace = %d bytes, want just the magic", buf.Len())
	}
	got, err := ReadAll(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty trace read: %v %v", got, err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte("NOTATRACE________"))); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	if _, err := ReadAll(bytes.NewReader(nil)); err != ErrBadMagic {
		t.Errorf("zero-byte stream: err = %v, want ErrBadMagic", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	injs := sampleWorkload(t)
	var buf bytes.Buffer
	if err := WriteAll(&buf, injs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Any strict prefix that cuts a record must error (not silently
	// shorten), except cuts exactly at record boundaries.
	boundaries := map[int]bool{len(Magic): true}
	off := len(Magic)
	for _, inj := range injs {
		off += 14 + len(inj.Pkt.Data)
		boundaries[off] = true
	}
	for cut := len(Magic) + 1; cut < len(full); cut++ {
		if boundaries[cut] {
			continue
		}
		_, err := ReadAll(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut at %d read cleanly", cut)
		}
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	hdr := make([]byte, 14)
	hdr[10] = 0xFF // length ≈ 4 GB
	hdr[11] = 0xFF
	hdr[12] = 0xFF
	hdr[13] = 0xFF
	buf.Write(hdr)
	if _, err := ReadAll(&buf); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestWriterValidation(t *testing.T) {
	w := NewWriter(io.Discard)
	bad := workload.Injection{Src: -1, Pkt: packet.BuildRaw(packet.Header{}, 0)}
	if err := w.Write(bad); err == nil {
		t.Error("negative src accepted")
	}
	bad = workload.Injection{Src: 1 << 20, Pkt: packet.BuildRaw(packet.Header{}, 0)}
	if err := w.Write(bad); err == nil {
		t.Error("huge src accepted")
	}
	bad = workload.Injection{Src: 0, At: -1, Pkt: packet.BuildRaw(packet.Header{}, 0)}
	if err := w.Write(bad); err == nil {
		t.Error("negative time accepted")
	}
}

// Property: any sequence of synthetic records round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seeds []uint16) bool {
		var injs []workload.Injection
		for i, s := range seeds {
			if i >= 50 {
				break
			}
			injs = append(injs, workload.Injection{
				Src: int(s % 256),
				At:  sim.Time(s) * sim.Nanosecond,
				Pkt: packet.BuildRaw(packet.Header{DstPort: s % 64, CoflowID: uint32(s)}, int(s%300)),
			})
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, injs); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != len(injs) {
			return false
		}
		for i := range injs {
			if got[i].Src != injs[i].Src || got[i].At != injs[i].At ||
				!bytes.Equal(got[i].Pkt.Data, injs[i].Pkt.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzReadAll holds the reader to what the writer can produce: reading any
// bytes never panics, and a stream it accepts has no negative time and
// writes back to exactly the bytes it was read from.
func FuzzReadAll(f *testing.F) {
	record := func(at uint64, src uint16, data []byte) []byte {
		var hdr [14]byte
		binary.BigEndian.PutUint64(hdr[0:8], at)
		binary.BigEndian.PutUint16(hdr[8:10], src)
		binary.BigEndian.PutUint32(hdr[10:14], uint32(len(data)))
		return append(hdr[:], data...)
	}
	trace := func(records ...[]byte) []byte { return bytes.Join(append([][]byte{Magic[:]}, records...), nil) }
	f.Add([]byte{})
	f.Add(trace())
	f.Add(trace(record(0, 1, []byte{1, 2, 3}), record(1000, 0xFFFF, nil)))
	f.Add(trace(record(1<<63, 0, []byte{9})))            // past the largest simulated time
	f.Add(trace(record(1<<63-1, 2, nil))[:len(Magic)+9]) // a cut header
	f.Add(trace(record(5, 0, make([]byte, 40)))[:len(Magic)+30])
	f.Fuzz(func(t *testing.T, b []byte) {
		injs, err := ReadAll(bytes.NewReader(b))
		if err != nil {
			return
		}
		for i, inj := range injs {
			if inj.At < 0 {
				t.Fatalf("record %d read back at %v, before time zero", i, inj.At)
			}
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, injs); err != nil {
			t.Fatalf("an accepted stream does not write back: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), b) {
			t.Fatalf("read then written back:\n%x\nwant the input:\n%x", buf.Bytes(), b)
		}
	})
}

func BenchmarkWriteRead(b *testing.B) {
	injs := make([]workload.Injection, 100)
	for i := range injs {
		injs[i] = workload.Injection{
			Src: i % 16, At: sim.Time(i) * sim.Microsecond,
			Pkt: packet.BuildRaw(packet.Header{DstPort: uint16(i)}, 256),
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteAll(&buf, injs); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadAll(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
