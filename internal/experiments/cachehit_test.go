package experiments

import (
	"runtime"
	"testing"
)

// TestCacheHitAllocs puts a ceiling on one whole default CacheHit call: six
// points of Zipf GETs, 21 201 batches, driven straight into
// core.Switch.Process. The requests are generated and regrouped once per
// skew and every batch packet comes out of one arena, so what is left is
// mostly the six switches. A call measured 7 351 objects and 7.94 MB
// (159 041 and 12.17 MB when every point regenerated its requests and built
// each batch, its pairs and its header on its own).
func TestCacheHitAllocs(t *testing.T) {
	const runs, maxObjects, maxBytes = 3, 12000, 9.5e6
	if _, _, err := CacheHit(nil, nil); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := CacheHit(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f allocations, %.2f MB per call", objects, bytes/1e6)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("a CacheHit call allocates %.0f objects and %.2f MB, want at most %d and %.1f MB", objects, bytes/1e6, maxObjects, maxBytes/1e6)
	}
}

// BenchmarkCacheHit is one default CacheHit call, the cachehit experiment's
// whole work: `make bench-profile PKG=./internal/experiments B=CacheHit`
// shows where it goes.
func BenchmarkCacheHit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := CacheHit(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
