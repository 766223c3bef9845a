package telemetry

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/sim"
)

// driveHub builds a hub with every metric kind plus a sampled run, so the
// encode/decode tests cover the full persisted surface.
func driveHub(t testing.TB) *Telemetry {
	t.Helper()
	reg := NewRegistry()
	tel := &Telemetry{Metrics: reg}
	tel.Sampler = NewSampler(reg, 10*sim.Microsecond, 8)
	c := reg.Counter("pkts", L("port", "0"))
	g := reg.Gauge("depth", reg.InstanceLabel("sw"))
	h := reg.Histogram("lat")
	reg.Set("exp.cct", 1234, L("arch", "adcp"))
	v := 0.0
	reg.ObserveFunc("occupancy", func() float64 { return v })
	eng := sim.NewEngine()
	tel.Sampler.Attach(eng)
	for i := 1; i <= 20; i++ {
		i := i
		eng.Schedule(sim.Time(i)*3*sim.Microsecond, func() {
			c.Add(uint64(i))
			g.Set(int64(i % 5))
			h.Observe(float64(i) * 1.5)
			v = float64(i)
		})
	}
	eng.Run()
	return tel
}

func hubJSON(t *testing.T, tel *Telemetry) (reg, samples []byte) {
	t.Helper()
	var rb, sb bytes.Buffer
	if err := tel.Metrics.WriteJSON(&rb); err != nil {
		t.Fatal(err)
	}
	if err := tel.Sampler.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return rb.Bytes(), sb.Bytes()
}

// The persistence contract the run journal depends on: for a quiescent
// hub, Merge(dst, Decode(Encode(src))) must be indistinguishable — in
// exported bytes — from Merge(dst, src). Otherwise a resumed sweep would
// not be byte-identical to an uninterrupted one.
func TestEncodeDecodeMergeEquivalence(t *testing.T) {
	src1, src2 := driveHub(t), driveHub(t)

	direct := &Telemetry{Metrics: NewRegistry()}
	direct.Sampler = NewSampler(direct.Metrics, 10*sim.Microsecond, 8)
	Merge(direct, src1)

	enc, err := EncodeHubState(src2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeHubState(enc)
	if err != nil {
		t.Fatal(err)
	}
	viaDisk := &Telemetry{Metrics: NewRegistry()}
	viaDisk.Sampler = NewSampler(viaDisk.Metrics, 10*sim.Microsecond, 8)
	Merge(viaDisk, dec)

	dr, ds := hubJSON(t, direct)
	vr, vs := hubJSON(t, viaDisk)
	if !bytes.Equal(dr, vr) {
		t.Fatalf("registry bytes diverge after an encode/decode round trip:\ndirect: %s\nvia disk: %s", dr, vr)
	}
	if !bytes.Equal(ds, vs) {
		t.Fatalf("sampler bytes diverge after an encode/decode round trip:\ndirect: %s\nvia disk: %s", ds, vs)
	}
}

// Encoding is canonical: the same quiescent hub encodes to the same bytes
// every time, so journal digests are stable.
func TestEncodeHubStateCanonical(t *testing.T) {
	tel := driveHub(t)
	a, err := EncodeHubState(tel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeHubState(tel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding the same hub twice produced different bytes")
	}
}

func TestDecodeHubStateRejectsWrongSchema(t *testing.T) {
	if _, err := DecodeHubState([]byte(`{"schema":"bogus/9"}`)); err == nil {
		t.Fatal("wrong schema decoded without error")
	}
	if _, err := DecodeHubState([]byte(`not json`)); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

// A second merge after decode must keep working: decoded func metrics are
// frozen at their encoded value, and decoded sampler series append to the
// destination's run sequence like live ones do.
func TestDecodedHubMergesRepeatedly(t *testing.T) {
	dst := &Telemetry{Metrics: NewRegistry()}
	dst.Sampler = NewSampler(dst.Metrics, 10*sim.Microsecond, 8)
	for i := 0; i < 3; i++ {
		enc, err := EncodeHubState(driveHub(t))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeHubState(enc)
		if err != nil {
			t.Fatal(err)
		}
		Merge(dst, dec)
	}
	// Three identical runs merged: the counter accumulated three times the
	// per-run total (sum of 1..20 = 210).
	var buf bytes.Buffer
	if err := dst.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"pkts"`)) {
		t.Fatalf("merged registry lost the counter: %s", buf.Bytes())
	}
	snap := dst.Metrics.Snapshot()
	found := false
	for _, m := range snap.Metrics {
		if m.Name == "pkts" {
			found = true
			if m.Value != 3*210 {
				t.Fatalf("pkts after three merges = %g, want %d", m.Value, 3*210)
			}
		}
	}
	if !found {
		t.Fatal("pkts missing from snapshot")
	}
}

// FuzzDecodeHubState feeds arbitrary bytes to the decoder the run journal
// replays on -resume. Whatever decodes must behave like a hub: merging it
// into a mirror, exporting the mirror and re-encoding must not panic, and
// the encoding must be canonical — Encode(Decode(b)) reproduces itself
// after one round, or the journal's digests would drift on every resume.
func FuzzDecodeHubState(f *testing.F) {
	seed, err := EncodeHubState(driveHub(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":"adcp-hubstate/1"}`))
	f.Add([]byte(`{"schema":"adcp-hubstate/1","registry":{"inst_seq":1000000000000000,"inst_keys":["net"],"metrics":[{"name":"m","labels":[{"k":"net","v":"7"}],"kind":"value","value":1}]}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		dec, err := DecodeHubState(b)
		if err != nil {
			return
		}
		once, err := EncodeHubState(dec)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeHubState(once)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		twice, err := EncodeHubState(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\nonce:  %s\ntwice: %s", once, twice)
		}

		dst := Mirror(dec)
		Merge(dst, dec)
		if dst.Metrics != nil {
			if err := dst.Metrics.WriteJSON(io.Discard); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
		}
		if dst.Sampler != nil {
			if err := dst.Sampler.WriteCSV(io.Discard); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
		}
	})
}
