package pulse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"paqoc/internal/linalg"
)

// Pulse-store benchmarks: warm-hit Lookup serial and parallel, indexed
// Nearest at growing populations, and Store at capacity with ranked
// eviction active. BENCH_005.json records an earlier run of the same
// workloads, on the sharded store that one mutex has since replaced.

// benchPopulate builds a DB holding n rotations over random angles — the
// one-parameter family a warm store accumulates from RZ-like customized
// gates — and returns the stored unitaries (hit probes) plus fresh ones
// that miss the exact key and exercise Nearest.
func benchPopulate(n int, rng *rand.Rand) (*DB, []*linalg.Matrix, []*linalg.Matrix) {
	db := NewDB()
	stored := make([]*linalg.Matrix, n)
	for i := range stored {
		stored[i] = rotation(rng.Float64() * 2 * math.Pi)
		db.Store(stored[i], &Generated{Latency: float64(i), Fidelity: 0.999, Error: 0.001})
	}
	probes := make([]*linalg.Matrix, 256)
	for i := range probes {
		probes[i] = rotation(rng.Float64() * 2 * math.Pi)
	}
	return db, stored, probes
}

// BenchmarkDBLookup measures warm-hit Lookup at 10k entries, serially
// and from GOMAXPROCS goroutines, which all contend on the store's one
// mutex; on one core the parallel figure is the serial one plus
// scheduler overhead.
func BenchmarkDBLookup(b *testing.B) {
	db, stored, _ := benchPopulate(10_000, rand.New(rand.NewSource(42)))
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db.Lookup(stored[i%len(stored)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				db.Lookup(stored[i%len(stored)])
				i++
			}
		})
	})
}

// BenchmarkDBNearest measures the norm-cached, triangle-pruned Nearest
// index at 1k, 10k and 100k entries.
func BenchmarkDBNearest(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			db, _, probes := benchPopulate(n, rand.New(rand.NewSource(42)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Nearest(probes[i%len(probes)], 10)
			}
		})
	}
}

// BenchmarkDBStoreBounded measures Store at a 4096-entry capacity: the
// bound forces a ranked-eviction sweep every max/32 inserts, so the
// per-op figure includes amortized eviction.
func BenchmarkDBStoreBounded(b *testing.B) {
	const max = 4_096
	rng := rand.New(rand.NewSource(42))
	db, _, _ := benchPopulate(max, rng)
	db.SetMaxEntries(max)
	gen := &Generated{Latency: 1, Fidelity: 0.999, Error: 0.001}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Store(rotation(rng.Float64()*2*math.Pi), gen)
	}
}
