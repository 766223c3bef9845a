package ha_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ha"
	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/pipeline"
)

// snapConfig is a small ADCP geometry used by every snapshot test.
func snapConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Ports = 8
	cfg.DemuxFactor = 2
	cfg.CentralPipelines = 4
	cfg.EgressPipelines = 2
	pipe := cfg.Pipe
	pipe.Stages = 4
	pipe.TableEntriesPerStage = 1024
	pipe.RegisterCellsPerStage = 64
	cfg.Pipe = pipe
	cfg.MaxActiveCoflows = 1
	return cfg
}

// snapPrograms accumulate KV keys into central stage-0 registers so a
// driven switch exports non-trivial register state.
func snapPrograms() core.Programs {
	return core.Programs{
		Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				if ctx.Decoded.Base.Proto != packet.ProtoKV {
					return nil
				}
				k := ctx.Decoded.KV.Pairs[0].Key
				if _, err := st.RegisterRMW(mat.RegAdd, int(k)%16, uint64(k)+1); err != nil {
					return err
				}
				ctx.Egress = 1
				return nil
			},
		}},
	}
}

// drivenSwitch builds a snapConfig switch and runs mixed traffic through
// it: forwarding (counters, demux, coflow directory, evictions) plus
// stateful KV packets (registers).
func drivenSwitch(t testing.TB) *core.Switch {
	t.Helper()
	s, err := core.New(snapConfig(), snapPrograms())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p := packet.BuildRaw(packet.Header{
			DstPort: uint16((i + 3) % 8), SrcPort: uint16(i % 4), CoflowID: 1,
		}, 40)
		p.IngressPort = i % 4
		if _, err := s.Process(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		p := packet.Build(packet.Header{
			Proto: packet.ProtoKV, SrcPort: uint16(i % 3), CoflowID: 2,
		}, &packet.KVHeader{Op: packet.KVGet, Pairs: []packet.KVPair{{Key: uint32(i + 1)}}})
		p.IngressPort = i % 3
		if _, err := s.Process(p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestCaptureRestoreByteIdentical(t *testing.T) {
	s := drivenSwitch(t)
	snap, err := ha.Capture(s)
	if err != nil {
		t.Fatal(err)
	}

	// Decode/re-encode is the identity on anything Capture produced.
	st, fp, err := ha.DecodeState(snap)
	if err != nil {
		t.Fatal(err)
	}
	if fp != s.GeometryFingerprint() {
		t.Fatalf("fingerprint %016x, want %016x", fp, s.GeometryFingerprint())
	}
	if re := ha.EncodeState(st, fp); !bytes.Equal(re, snap) {
		t.Fatalf("re-encode diverged: %d vs %d bytes", len(re), len(snap))
	}

	// Restoring into a fresh identical switch reproduces the snapshot
	// byte-for-byte.
	s2, err := core.New(snapConfig(), snapPrograms())
	if err != nil {
		t.Fatal(err)
	}
	if err := ha.Restore(s2, snap); err != nil {
		t.Fatal(err)
	}
	snap2, err := ha.Capture(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, snap2) {
		t.Fatal("restore-then-capture is not byte-identical")
	}

	// The decoded structure round-trips too (paranoia: byte equality could
	// in principle hide an Encode bug mirrored in Decode).
	st2, _, err := ha.DecodeState(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatal("decoded states differ")
	}
}

// Register cells exist only in stages a packet has written, so checkpoints
// must not care which side of a capture or restore ever made them: an idle
// switch (no stage touched) and a driven one exchange state both ways.
func TestCaptureRestoreUntouchedStages(t *testing.T) {
	idle, err := core.New(snapConfig(), snapPrograms())
	if err != nil {
		t.Fatal(err)
	}
	idleSnap, err := ha.Capture(idle)
	if err != nil {
		t.Fatal(err)
	}
	driven := drivenSwitch(t)
	drivenSnap, err := ha.Capture(driven)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(idleSnap, drivenSnap) {
		t.Fatal("driving the switch left no state to tell apart")
	}
	// Empty state into written register files clears them.
	if err := ha.Restore(driven, idleSnap); err != nil {
		t.Fatal(err)
	}
	if got, err := ha.Capture(driven); err != nil || !bytes.Equal(got, idleSnap) {
		t.Fatalf("driven switch restored from the idle snapshot differs from it (err %v)", err)
	}
	// Written state into untouched register files creates them.
	if err := ha.Restore(idle, drivenSnap); err != nil {
		t.Fatal(err)
	}
	if got, err := ha.Capture(idle); err != nil || !bytes.Equal(got, drivenSnap) {
		t.Fatalf("idle switch restored from the driven snapshot differs from it (err %v)", err)
	}
}

func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	snap, err := ha.Capture(drivenSwitch(t))
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.New(core.DefaultConfig(), core.Programs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ha.Restore(other, snap); err == nil {
		t.Fatal("restore into a different geometry accepted")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	snap, err := ha.Capture(drivenSwitch(t))
	if err != nil {
		t.Fatal(err)
	}
	reject := func(name string, b []byte) {
		if _, _, err := ha.DecodeState(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	bad := append([]byte(nil), snap...)
	bad[0] ^= 0xFF
	reject("bad magic", bad)
	bad = append([]byte(nil), snap...)
	bad[4] ^= 0xFF
	reject("bad version", bad)
	reject("truncated", snap[:len(snap)-1])
	reject("trailing byte", append(append([]byte(nil), snap...), 0))
	reject("empty", nil)
}
