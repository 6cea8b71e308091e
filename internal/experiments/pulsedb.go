package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"paqoc/internal/linalg"
	"paqoc/internal/pulse"
)

// PulseDBRecord is one measured operation in the pulse-store benchmark
// suite (BENCH_005.json): warm-hit Lookup throughput serial vs parallel
// on the sharded store, indexed Nearest at growing populations, and Store
// cost at capacity with ranked eviction active.
type PulseDBRecord struct {
	Name        string  `json:"name"`
	Entries     int     `json:"entries"`
	Goroutines  int     `json:"goroutines,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

func pulseDBRecord(name string, entries, goroutines int, r testing.BenchmarkResult) PulseDBRecord {
	return PulseDBRecord{
		Name:        name,
		Entries:     entries,
		Goroutines:  goroutines,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// pulseDBRotation mirrors the RZ-like customized-gate unitaries a warm
// store accumulates: 2×2 rotations over random angles.
func pulseDBRotation(theta float64) *linalg.Matrix {
	u := linalg.New(2, 2)
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	u.Data[0] = complex(c, 0)
	u.Data[1] = complex(0, -s)
	u.Data[2] = complex(0, -s)
	u.Data[3] = complex(c, 0)
	return u
}

// pulseDBPopulate builds a DB holding n rotation entries and returns the
// stored unitaries (for hit probes) plus fresh probe unitaries that miss
// the exact-key path and exercise Nearest.
func pulseDBPopulate(n int, rng *rand.Rand) (*pulse.DB, []*linalg.Matrix, []*linalg.Matrix) {
	db := pulse.NewDB()
	stored := make([]*linalg.Matrix, n)
	for i := range stored {
		stored[i] = pulseDBRotation(rng.Float64() * 2 * math.Pi)
		db.Store(stored[i], &pulse.Generated{Latency: float64(i), Fidelity: 0.999, Error: 0.001})
	}
	probes := make([]*linalg.Matrix, 256)
	for i := range probes {
		probes[i] = pulseDBRotation(rng.Float64() * 2 * math.Pi)
	}
	return db, stored, probes
}

// PulseDB benchmarks the sharded pulse store; Nearest runs on the
// norm-cached, triangle-inequality-pruned index.
func PulseDB() []PulseDBRecord {
	rng := rand.New(rand.NewSource(42))
	procs := runtime.GOMAXPROCS(0)
	var out []PulseDBRecord

	// Warm-hit Lookup throughput, serial vs one goroutine per processor.
	// Shard-level RWMutexes mean parallel readers contend only when their
	// keys hash to the same shard; on a single-core host the parallel
	// figure degenerates to the serial one plus scheduler overhead.
	{
		const n = 10_000
		db, stored, _ := pulseDBPopulate(n, rng)
		out = append(out,
			pulseDBRecord("lookup.serial", n, 1, testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					db.Lookup(stored[i%len(stored)])
				}
			})),
			pulseDBRecord("lookup.parallel", n, procs, testing.Benchmark(func(b *testing.B) {
				b.RunParallel(func(pb *testing.PB) {
					i := rng.Int()
					for pb.Next() {
						db.Lookup(stored[i%len(stored)])
						i++
					}
				})
			})),
		)
	}

	// Nearest: pruned index at growing populations.
	for _, n := range []int{1_000, 10_000, 100_000} {
		db, _, probes := pulseDBPopulate(n, rng)
		out = append(out,
			pulseDBRecord("nearest.indexed", n, 1, testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					db.Nearest(probes[i%len(probes)], 10)
				}
			})),
		)
	}

	// Store at capacity: the bound forces a ranked-eviction sweep every
	// max/32 inserts, so the per-op figure includes amortized eviction.
	{
		const max = 4_096
		db, _, _ := pulseDBPopulate(max, rng)
		db.SetMaxEntries(max)
		gen := &pulse.Generated{Latency: 1, Fidelity: 0.999, Error: 0.001}
		out = append(out,
			pulseDBRecord("store.bounded", max, 1, testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					db.Store(pulseDBRotation(rng.Float64()*2*math.Pi), gen)
				}
			})),
		)
	}
	return out
}

// PrintPulseDB renders the pulse-store records.
func PrintPulseDB(w io.Writer, recs []PulseDBRecord) {
	fmt.Fprintln(w, "Sharded pulse-store benchmarks (warm-hit Lookup, indexed Nearest, bounded Store)")
	fmt.Fprintf(w, "%-18s %8s %4s %14s %12s %12s\n", "op", "entries", "G", "ns/op", "allocs/op", "B/op")
	for _, r := range recs {
		fmt.Fprintf(w, "%-18s %8d %4d %14.1f %12.2f %12.1f\n",
			r.Name, r.Entries, r.Goroutines, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
}
