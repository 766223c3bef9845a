package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestMLGeneratesFullModel(t *testing.T) {
	p := MLParams{CoflowID: 1, Workers: 4, ModelSize: 100, ValuesPerPacket: 16, Seed: 7}
	injs, err := ML(p)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(100/16) = 7 packets per worker.
	if len(injs) != 4*7 {
		t.Fatalf("%d injections, want 28", len(injs))
	}
	// Verify coverage and values per worker.
	seen := make(map[int]map[int]uint32) // worker → index → value
	lasts := 0
	for _, inj := range injs {
		var d packet.Decoded
		if err := d.DecodePacket(inj.Pkt); err != nil {
			t.Fatal(err)
		}
		if d.Base.Proto != packet.ProtoML || d.Base.CoflowID != 1 {
			t.Fatal("bad header")
		}
		w := int(d.ML.Worker)
		if seen[w] == nil {
			seen[w] = make(map[int]uint32)
		}
		for i, v := range d.ML.Values {
			seen[w][int(d.ML.Base)+i] = v
		}
		if d.Base.Flags&packet.FlagLast != 0 {
			lasts++
		}
	}
	if lasts != 4 {
		t.Errorf("FlagLast on %d packets, want 4 (one per worker)", lasts)
	}
	for w := 0; w < 4; w++ {
		if len(seen[w]) != 100 {
			t.Fatalf("worker %d covered %d weights", w, len(seen[w]))
		}
		for idx, v := range seen[w] {
			if v != MLWeight(7, w, idx) {
				t.Fatalf("worker %d weight %d = %d, want %d", w, idx, v, MLWeight(7, w, idx))
			}
		}
	}
}

func TestMLExpectedSum(t *testing.T) {
	var sum uint32
	for w := 0; w < 5; w++ {
		sum += MLWeight(3, w, 42)
	}
	if got := MLExpectedSum(3, 5, 42); got != sum {
		t.Errorf("MLExpectedSum = %d, want %d", got, sum)
	}
}

func TestMLScalarVsArrayPacketCounts(t *testing.T) {
	scalar, _ := ML(MLParams{CoflowID: 1, Workers: 1, ModelSize: 64, ValuesPerPacket: 1})
	wide, _ := ML(MLParams{CoflowID: 1, Workers: 1, ModelSize: 64, ValuesPerPacket: 16})
	if len(scalar) != 64 || len(wide) != 4 {
		t.Errorf("scalar=%d wide=%d, want 64/4 (the §3.2 16× packet count gap)", len(scalar), len(wide))
	}
}

func TestMLValidation(t *testing.T) {
	if _, err := ML(MLParams{Workers: 0, ModelSize: 1, ValuesPerPacket: 1}); err == nil {
		t.Error("bad params accepted")
	}
}

func TestKVDeterministicAndBounded(t *testing.T) {
	p := KVParams{CoflowID: 2, Clients: 3, OpsPerClient: 10, KeysPerPacket: 8, KeySpace: 100, PutFraction: 0.3, Seed: 9}
	a, err := KV(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := KV(p)
	if len(a) != 30 || len(b) != 30 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	puts := 0
	for i := range a {
		if string(a[i].Pkt.Data) != string(b[i].Pkt.Data) {
			t.Fatal("KV not deterministic")
		}
		var d packet.Decoded
		if err := d.DecodePacket(a[i].Pkt); err != nil {
			t.Fatal(err)
		}
		if len(d.KV.Pairs) != 8 {
			t.Fatalf("pairs = %d", len(d.KV.Pairs))
		}
		for _, pr := range d.KV.Pairs {
			if pr.Key >= 100 {
				t.Fatalf("key %d out of keyspace", pr.Key)
			}
		}
		if d.KV.Op == packet.KVPut {
			puts++
		}
	}
	if puts == 0 || puts == 30 {
		t.Errorf("puts = %d of 30, want a mix near 30%%", puts)
	}
}

// kvByBuild is KV as first written, a pairs slice, a header and a
// packet.Build per packet: the reference the arena version must match.
func kvByBuild(p KVParams) []Injection {
	rng := sim.NewRNG(p.Seed)
	var injs []Injection
	for c := 0; c < p.Clients; c++ {
		t := sim.Time(0)
		for op := 0; op < p.OpsPerClient; op++ {
			pairs := make([]packet.KVPair, p.KeysPerPacket)
			for i := range pairs {
				pairs[i].Key = uint32(rng.Uint64()) % p.KeySpace
			}
			kvop := packet.KVGet
			if rng.Float64() < p.PutFraction {
				kvop = packet.KVPut
				for i := range pairs {
					pairs[i].Value = uint32(rng.Uint64())
				}
			}
			pkt := packet.Build(packet.Header{
				Proto: packet.ProtoKV, SrcPort: uint16(c), CoflowID: p.CoflowID, FlowID: uint32(c), Seq: uint32(op),
			}, &packet.KVHeader{Op: kvop, Pairs: pairs})
			injs = append(injs, Injection{Src: c, Pkt: pkt, At: t})
			t += p.Gap
		}
	}
	return injs
}

// kvZipfByBuild is the matching KVZipf reference: kvByBuild's packets with
// their keys redrawn from the sampler, each rebuilt by packet.Build.
func kvZipfByBuild(t *testing.T, p KVParams, skew float64) []Injection {
	z, err := NewZipf(sim.NewRNG(p.Seed), skew, int(p.KeySpace))
	if err != nil {
		t.Fatal(err)
	}
	injs := kvByBuild(p)
	for i, inj := range injs {
		var d packet.Decoded
		if err := d.DecodePacket(inj.Pkt); err != nil {
			t.Fatal(err)
		}
		for j := range d.KV.Pairs {
			d.KV.Pairs[j].Key = z.Sample()
		}
		injs[i].Pkt = packet.Build(d.Base, &d.KV)
	}
	return injs
}

// TestKVMatchesPerPacketBuild: KV and KVZipf, whose packets come out of one
// arena and are encoded from one reused header, give the bytes, sources and
// times of a packet.Build per packet at no, some and only PUTs. With the
// pairs buffer reused, a GET that follows a PUT still carries zero values.
func TestKVMatchesPerPacketBuild(t *testing.T) {
	for _, put := range []float64{0, 0.3, 1} {
		p := KVParams{CoflowID: 2, Clients: 3, OpsPerClient: 40, KeysPerPacket: 8, KeySpace: 100, PutFraction: put, Gap: 100, Seed: 9}
		kv, err := KV(p)
		if err != nil {
			t.Fatal(err)
		}
		zipf, err := KVZipf(p, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string][2][]Injection{"KV": {kv, kvByBuild(p)}, "KVZipf": {zipf, kvZipfByBuild(t, p, 1.1)}} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("%s put %v: %d injections, want %d", name, put, len(got), len(want))
			}
			for i := range want {
				if got[i].Src != want[i].Src || got[i].At != want[i].At || string(got[i].Pkt.Data) != string(want[i].Pkt.Data) {
					t.Fatalf("%s put %v: injection %d is %+v % x, want %+v % x", name, put, i, got[i], got[i].Pkt.Data, want[i], want[i].Pkt.Data)
				}
			}
		}
		getsAfterPut, afterPut := 0, false
		for _, inj := range kv {
			var d packet.Decoded
			if err := d.DecodePacket(inj.Pkt); err != nil {
				t.Fatal(err)
			}
			if d.KV.Op == packet.KVGet && afterPut {
				getsAfterPut++
				for _, pr := range d.KV.Pairs {
					if pr.Value != 0 {
						t.Fatalf("put %v: a GET after a PUT carries value %d for key %d", put, pr.Value, pr.Key)
					}
				}
			}
			afterPut = d.KV.Op == packet.KVPut
		}
		if put == 0.3 && getsAfterPut == 0 {
			t.Error("no GET followed a PUT; the reuse check checked nothing")
		}
	}
}

func TestKVValidation(t *testing.T) {
	bad := []KVParams{
		{Clients: 0, OpsPerClient: 1, KeysPerPacket: 1, KeySpace: 1},
		{Clients: 1, OpsPerClient: 1, KeysPerPacket: 1, KeySpace: 0},
		{Clients: 1, OpsPerClient: 1, KeysPerPacket: 1, KeySpace: 1, PutFraction: 1.5},
	}
	for i, p := range bad {
		if _, err := KV(p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestDBSelectivityAndTotals(t *testing.T) {
	p := DBParams{CoflowID: 3, Query: 1, Sources: 4, TuplesPerSource: 1000, TuplesPerPacket: 16, KeySpace: 64, Selectivity: 0.5, Seed: 11}
	injs, total, err := DB(p)
	if err != nil {
		t.Fatal(err)
	}
	// ≈50% of 4000 tuples survive the filter.
	if total < 1800 || total > 2200 {
		t.Errorf("filtered total = %d, want ≈2000", total)
	}
	counted := 0
	lasts := 0
	for _, inj := range injs {
		var d packet.Decoded
		if err := d.DecodePacket(inj.Pkt); err != nil {
			t.Fatal(err)
		}
		counted += len(d.DB.Tuples)
		for _, tp := range d.DB.Tuples {
			if tp.Measure != 1 || tp.Key >= 64 {
				t.Fatal("bad tuple")
			}
		}
		if d.Base.Flags&packet.FlagLast != 0 {
			lasts++
		}
	}
	if counted != total {
		t.Errorf("tuples in packets %d != reported total %d", counted, total)
	}
	if lasts != 4 {
		t.Errorf("lasts = %d, want 4", lasts)
	}
	if _, _, err := DB(DBParams{Sources: 1, TuplesPerSource: 1, TuplesPerPacket: 1, KeySpace: 1, Selectivity: 0}); err == nil {
		t.Error("zero selectivity accepted")
	}
}

func TestGraphRoundsStructure(t *testing.T) {
	p := GraphParams{CoflowID: 4, Hosts: 2, Vertices: 50, EdgesPerHost: 20, EdgesPerPacket: 8, Rounds: 3, Gap: 1000, Seed: 5}
	injs, err := Graph(p)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(20/8)=3 packets × 2 hosts × 3 rounds.
	if len(injs) != 18 {
		t.Fatalf("%d injections, want 18", len(injs))
	}
	rounds := map[uint16]int{}
	for _, inj := range injs {
		var d packet.Decoded
		if err := d.DecodePacket(inj.Pkt); err != nil {
			t.Fatal(err)
		}
		rounds[d.Graph.Round] += len(d.Graph.Edges)
		for _, e := range d.Graph.Edges {
			if e.Src >= 50 || e.Dst >= 50 {
				t.Fatal("vertex out of range")
			}
		}
	}
	for r := uint16(0); r < 3; r++ {
		if rounds[r] != 40 {
			t.Errorf("round %d edges = %d, want 40", r, rounds[r])
		}
	}
	if _, err := Graph(GraphParams{Hosts: 0, Vertices: 1, EdgesPerHost: 1, EdgesPerPacket: 1, Rounds: 1}); err == nil {
		t.Error("bad params accepted")
	}
}

func TestGroupChunks(t *testing.T) {
	p := GroupParams{CoflowID: 5, GroupID: 9, Source: 2, Chunks: 5, ChunkLen: 64, Gap: 100}
	injs, err := Group(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(injs) != 5 {
		t.Fatalf("%d injections", len(injs))
	}
	for i, inj := range injs {
		if inj.Src != 2 {
			t.Error("wrong source")
		}
		var d packet.Decoded
		if err := d.DecodePacket(inj.Pkt); err != nil {
			t.Fatal(err)
		}
		if d.Group.Chunk != uint32(i) || d.Group.Total != 5 || len(d.Group.Payload) != 64 {
			t.Fatalf("chunk %d header %+v", i, d.Group)
		}
	}
	if _, err := Group(GroupParams{Chunks: 0, ChunkLen: 1}); err == nil {
		t.Error("bad params accepted")
	}
}

// Property: ML weight coverage — for any model size and width, each worker
// sends exactly ModelSize distinct weight indexes.
func TestMLCoverageProperty(t *testing.T) {
	f := func(sizeRaw, widthRaw uint8) bool {
		size := int(sizeRaw)%200 + 1
		width := int(widthRaw)%16 + 1
		injs, err := ML(MLParams{CoflowID: 1, Workers: 1, ModelSize: size, ValuesPerPacket: width, Seed: 1})
		if err != nil {
			return false
		}
		covered := make(map[int]bool)
		for _, inj := range injs {
			var d packet.Decoded
			if err := d.DecodePacket(inj.Pkt); err != nil {
				return false
			}
			for i := range d.ML.Values {
				covered[int(d.ML.Base)+i] = true
			}
		}
		return len(covered) == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	rng := sim.NewRNG(7)
	z, err := NewZipf(rng, 1.0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		k := z.Sample()
		if int(k) >= 1000 {
			t.Fatalf("sample %d out of keyspace", k)
		}
		counts[k]++
	}
	// Zipf(1) over 1000 keys: rank 0 has p ≈ 1/H(1000) ≈ 0.134; the top
	// 10 keys together ≈ 39%.
	if counts[0] < n/10 {
		t.Errorf("hottest key drew %d of %d, want ≥10%%", counts[0], n)
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if top10 < n/3 {
		t.Errorf("top-10 keys drew %d of %d, want ≥33%%", top10, n)
	}
	// Rank ordering holds in aggregate for the head.
	if counts[0] < counts[9] {
		t.Error("rank 0 colder than rank 9")
	}
}

func TestZipfZeroSkewIsUniform(t *testing.T) {
	rng := sim.NewRNG(9)
	z, err := NewZipf(rng, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	const n = 64000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	for k, c := range counts {
		if c < n/16-n/32 || c > n/16+n/32 {
			t.Errorf("key %d drew %d, want ≈%d (uniform)", k, c, n/16)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := NewZipf(rng, 1, 0); err == nil {
		t.Error("zero keyspace accepted")
	}
	if _, err := NewZipf(rng, -1, 10); err == nil {
		t.Error("negative skew accepted")
	}
}

func TestKVZipfRewritesKeysInKeyspace(t *testing.T) {
	p := KVParams{CoflowID: 1, Clients: 2, OpsPerClient: 50, KeysPerPacket: 8, KeySpace: 64, Seed: 3}
	injs, err := KVZipf(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint32]int{}
	total := 0
	for _, inj := range injs {
		var d packet.Decoded
		if err := d.DecodePacket(inj.Pkt); err != nil {
			t.Fatal(err)
		}
		for _, pr := range d.KV.Pairs {
			if pr.Key >= 64 {
				t.Fatalf("key %d out of keyspace", pr.Key)
			}
			counts[pr.Key]++
			total++
		}
	}
	if total != 2*50*8 {
		t.Fatalf("total keys = %d", total)
	}
	// Skew visible: hottest key well above uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3*total/64 {
		t.Errorf("hottest key drew %d of %d — no skew visible", max, total)
	}
	if _, err := KVZipf(KVParams{}, 1); err == nil {
		t.Error("bad params accepted")
	}
}
