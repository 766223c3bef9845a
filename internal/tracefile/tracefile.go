// Package tracefile serializes workload injections to a compact binary
// stream and replays them, so experiments can be recorded once and re-run
// bit-identically (or shipped to other tools). The format is
// endian-stable, versioned, and streaming:
//
//	header:  8-byte magic "ADCPTRC1"
//	record:  u64 time_ps | u16 src | u32 len | len bytes of packet data
//
// Records repeat until EOF. All integers are big-endian.
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Magic identifies the format and its version.
var Magic = [8]byte{'A', 'D', 'C', 'P', 'T', 'R', 'C', '1'}

// ErrBadMagic is returned when the stream does not start with Magic.
var ErrBadMagic = errors.New("tracefile: bad magic")

// MaxRecordBytes bounds a record's packet length (rejects corrupt lengths
// before allocating).
const MaxRecordBytes = 1 << 20

// Writer writes a trace stream.
type Writer struct {
	w   *bufio.Writer
	n   int
	hdr bool
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one injection.
func (t *Writer) Write(inj workload.Injection) error {
	if !t.hdr {
		if _, err := t.w.Write(Magic[:]); err != nil {
			return err
		}
		t.hdr = true
	}
	if inj.At < 0 {
		return fmt.Errorf("tracefile: negative time %v", inj.At)
	}
	if inj.Src < 0 || inj.Src > 0xFFFF {
		return fmt.Errorf("tracefile: source %d out of uint16", inj.Src)
	}
	if len(inj.Pkt.Data) > MaxRecordBytes {
		return fmt.Errorf("tracefile: packet %d bytes exceeds %d", len(inj.Pkt.Data), MaxRecordBytes)
	}
	var hdr [14]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(inj.At))
	binary.BigEndian.PutUint16(hdr[8:10], uint16(inj.Src))
	binary.BigEndian.PutUint32(hdr[10:14], uint32(len(inj.Pkt.Data)))
	if _, err := t.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := t.w.Write(inj.Pkt.Data); err != nil {
		return err
	}
	t.n++
	return nil
}

// Count returns records written.
func (t *Writer) Count() int { return t.n }

// Flush flushes the underlying buffer. Writing the header even for an
// empty trace keeps empty files valid.
func (t *Writer) Flush() error {
	if !t.hdr {
		if _, err := t.w.Write(Magic[:]); err != nil {
			return err
		}
		t.hdr = true
	}
	return t.w.Flush()
}

// WriteAll writes a whole workload and flushes.
func WriteAll(w io.Writer, injs []workload.Injection) error {
	tw := NewWriter(w)
	for _, inj := range injs {
		if err := tw.Write(inj); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Reader reads a trace stream.
type Reader struct {
	r   *bufio.Reader
	hdr bool
	n   int // records read
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Next returns the next injection, or io.EOF at a clean end of stream. A
// record no Writer can produce is an error naming the record, never an
// injection: a time past the largest simulated time would read back
// negative.
func (t *Reader) Next() (workload.Injection, error) {
	if !t.hdr {
		var m [8]byte
		if _, err := io.ReadFull(t.r, m[:]); err != nil {
			if err == io.EOF {
				return workload.Injection{}, ErrBadMagic // empty stream: not a trace
			}
			return workload.Injection{}, err
		}
		if m != Magic {
			return workload.Injection{}, ErrBadMagic
		}
		t.hdr = true
	}
	var hdr [14]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		if err == io.EOF {
			return workload.Injection{}, io.EOF
		}
		return workload.Injection{}, fmt.Errorf("tracefile: truncated record header: %w", err)
	}
	at := binary.BigEndian.Uint64(hdr[0:8])
	src := binary.BigEndian.Uint16(hdr[8:10])
	n := binary.BigEndian.Uint32(hdr[10:14])
	if at > math.MaxInt64 {
		return workload.Injection{}, fmt.Errorf("tracefile: record %d: time %d ps is past the largest simulated time", t.n, at)
	}
	if n > MaxRecordBytes {
		return workload.Injection{}, fmt.Errorf("tracefile: record length %d exceeds %d", n, MaxRecordBytes)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(t.r, data); err != nil {
		return workload.Injection{}, fmt.Errorf("tracefile: truncated record body: %w", err)
	}
	t.n++
	return workload.Injection{
		Src: int(src),
		At:  sim.Time(at),
		Pkt: &packet.Packet{Data: data, EgressPort: -1},
	}, nil
}

// ReadAll reads every record.
func ReadAll(r io.Reader) ([]workload.Injection, error) {
	tr := NewReader(r)
	var out []workload.Injection
	for {
		inj, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, inj)
	}
}
