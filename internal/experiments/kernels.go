package experiments

import (
	"context"
	"fmt"
	"io"
	"testing"

	"paqoc/internal/bench"
	"paqoc/internal/grape"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

// KernelRecord is one measured kernel variant in the destination-passing
// benchmark suite (BENCH_003.json): the value-returning ("before") and
// Into ("after") form of each hot operation, plus whole-GRAPE-iteration
// figures for the reference and arena paths. BENCH_010.json extends the
// suite with the specialized matmul dispatch (mul.generic vs mul.blocked),
// the parallel gradient pass (gradpass.*), and the end-to-end 17-benchmark
// sweep with the specialized kernels off vs on (e2e.sweep17.*).
type KernelRecord struct {
	Name        string  `json:"name"`
	N           int     `json:"n"` // matrix dimension (or slice count context, see name)
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

func record(name string, n int, r testing.BenchmarkResult) KernelRecord {
	return KernelRecord{
		Name:        name,
		N:           n,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// Kernels benchmarks the destination-passing linalg kernels against their
// value-returning wrappers, and the arena-based GRAPE iteration against
// the pre-arena reference loop. testing.Benchmark self-calibrates the
// iteration counts, so this runs in a few seconds.
func Kernels() []KernelRecord {
	const n = 8 // 3-qubit dimension, the largest customized-gate space
	a := randomKernelMatrix(n, 101)
	b := randomKernelMatrix(n, 102)
	h := a.Add(a.Dagger()).Scale(0.5)
	dst := linalg.New(n, n)
	daggerDst := linalg.New(n, n)
	ws := linalg.NewWorkspace(n)

	sys3 := hamiltonian.XYTransmon(3, hamiltonian.LinearChain(3))
	amps3 := make([]float64, len(sys3.Controls))
	for k := range amps3 {
		amps3[k] = 0.3 * sys3.Controls[k].Bound
	}
	propDst := linalg.New(sys3.Dim, sys3.Dim)
	propWs := linalg.NewWorkspace(sys3.Dim)

	var out []KernelRecord
	out = append(out,
		record("mul.value", n, testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				_ = a.Mul(b)
			}
		})),
		record("mul.into", n, testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				linalg.MulInto(dst, a, b)
			}
		})),
		record("dagger.value", n, testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				_ = a.Dagger()
			}
		})),
		record("dagger.into", n, testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				linalg.DaggerInto(daggerDst, a)
			}
		})),
		record("expmhermitian.value", n, testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				_ = linalg.ExpmHermitian(h, 0.3)
			}
		})),
		record("expmhermitian.into", n, testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				linalg.ExpmHermitianInto(dst, h, 0.3, ws)
			}
		})),
		record("propagator3q.value", sys3.Dim, testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				_ = sys3.Propagator(amps3, 4)
			}
		})),
		record("propagator3q.into", sys3.Dim, testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				sys3.PropagatorInto(propDst, amps3, 4, propWs)
			}
		})),
	)

	// Specialized-dispatch comparison (BENCH_010.json): the portable
	// scalar kernel against the blocked/unrolled MulInto dispatch at the
	// dimensions the compiler actually produces (2/3/4-qubit unitary
	// spaces). Both paths are bit-identical; only the schedule of the
	// arithmetic differs (see internal/linalg/kernels_amd64.s).
	for _, n := range []int{4, 8, 16} {
		ga := randomKernelMatrix(n, 201)
		gb := randomKernelMatrix(n, 202)
		gd := linalg.New(n, n)
		out = append(out,
			record("mul.generic", n, testing.Benchmark(func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					linalg.MulIntoGeneric(gd, ga, gb)
				}
			})),
			record("mul.blocked", n, testing.Benchmark(func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					linalg.MulInto(gd, ga, gb)
				}
			})),
		)
	}

	// Whole-iteration comparison on a CX problem: TargetFidelity 2 is
	// unreachable, so each Optimize call runs exactly MaxIter iterations
	// and the per-op figures normalize to per-iteration cost.
	sys2 := hamiltonian.XYTransmon(2, [][2]int{{0, 1}})
	const iters, slices = 40, 12
	opts := grape.Options{MaxIter: iters, Seed: 3, TargetFidelity: 2}
	refRes := testing.Benchmark(func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			grape.OptimizeReference(sys2, quantum.MatCX, slices, opts)
		}
	})
	arenaRes := testing.Benchmark(func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			grape.OptimizeCtx(context.Background(), sys2, quantum.MatCX, slices, opts)
		}
	})
	out = append(out,
		perIteration(record("grapeiter.reference", slices, refRes), iters),
		perIteration(record("grapeiter.arena", slices, arenaRes), iters),
	)

	// Parallel forward/gradient pass: per-iteration cost of the same
	// optimization with the worker pool on. On a single-core host this
	// only measures coordination overhead; rerun on a multi-core host for
	// the wall-clock win (results are bit-identical either way).
	const parSlices = 16
	for _, workers := range []int{1, 4} {
		wopts := opts
		wopts.Workers = workers
		name := "gradpass.serial"
		if workers > 1 {
			name = "gradpass.parallel4"
		}
		res := testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				grape.OptimizeCtx(context.Background(), sys2, quantum.MatCX, parSlices, wopts)
			}
		})
		out = append(out, perIteration(record(name, parSlices, res), iters))
	}

	// End-to-end compile seconds: the full 17-benchmark analytical sweep
	// (the fig10/fig12 workload) with the specialized kernels disabled
	// ("before") and enabled ("after"). MulInto is a small share of this
	// sweep's CPU, so the kernels move this row little.
	specs := bench.All()
	for _, fast := range []bool{false, true} {
		name := "e2e.sweep17.generic"
		if fast {
			name = "e2e.sweep17.blocked"
		}
		prev := linalg.SetFastKernels(fast)
		res := testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				if _, err := DefaultPlatform().RunAll(specs); err != nil {
					panic(err)
				}
			}
		})
		linalg.SetFastKernels(prev)
		out = append(out, record(name, len(specs), res))
	}
	return out
}

// perIteration rescales a whole-Optimize record to a single-iteration one.
func perIteration(r KernelRecord, iters int) KernelRecord {
	r.NsPerOp /= float64(iters)
	r.AllocsPerOp /= float64(iters)
	r.BytesPerOp /= float64(iters)
	return r
}

// PrintKernels renders the kernel records as a before/after table.
func PrintKernels(w io.Writer, recs []KernelRecord) {
	fmt.Fprintln(w, "Destination-passing kernel benchmarks (value API vs Into kernels)")
	fmt.Fprintf(w, "%-22s %4s %14s %12s %12s\n", "kernel", "n", "ns/op", "allocs/op", "B/op")
	for _, r := range recs {
		fmt.Fprintf(w, "%-22s %4d %14.1f %12.2f %12.1f\n", r.Name, r.N, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
}

func randomKernelMatrix(n int, seed int64) *linalg.Matrix {
	// Deterministic pseudo-random fill without pulling math/rand into the
	// benchmark loop: a xorshift over the seed.
	m := linalg.New(n, n)
	s := uint64(seed)
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s%2000))/1000 - 1
	}
	for i := range m.Data {
		m.Data[i] = complex(next(), next())
	}
	return m
}
