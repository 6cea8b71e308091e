package grape

import (
	"fmt"
	"math"
	"math/rand"

	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
)

// OptimizeReference is the pre-arena GRAPE loop, kept verbatim on the
// value-returning (allocating) linalg kernels with no instrumentation.
// It is the differential oracle for the zero-allocation path: for any
// fixed seed, optimize must reproduce its Fidelity, Iters, and Amps
// bit-for-bit (TestOptimizeMatchesReference). Its figures as the "before"
// baseline of the kernel benchmarks are on record in BENCH_003.json.
func OptimizeReference(sys *hamiltonian.System, target *linalg.Matrix, slices int, opts Options) *Result {
	opts.fill()
	if target.Rows != sys.Dim {
		panic(fmt.Sprintf("grape: target dim %d does not match system dim %d", target.Rows, sys.Dim))
	}
	nc := len(sys.Controls)
	rng := rand.New(rand.NewSource(opts.Seed + int64(slices)))

	amps := make([][]float64, nc)
	for k := range amps {
		amps[k] = make([]float64, slices)
		for j := range amps[k] {
			amps[k][j] = sys.Controls[k].Bound * 0.2 * (rng.Float64()*2 - 1)
		}
	}
	if guess := alignGuess(sys, opts.InitialGuess); guess != nil {
		for k := 0; k < nc; k++ {
			src := guess[k]
			srcN := len(src)
			for j := 0; j < slices; j++ {
				amps[k][j] = src[j*srcN/slices]
			}
		}
	}

	m := make([][]float64, nc)
	v := make([][]float64, nc)
	for k := range m {
		m[k] = make([]float64, slices)
		v[k] = make([]float64, slices)
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8

	best := &Result{Fidelity: -1}
	dim := float64(sys.Dim)
	dt := opts.SliceDt

	for iter := 1; iter <= opts.MaxIter; iter++ {
		// Forward pass: slice propagators and cumulative products.
		props := make([]*linalg.Matrix, slices)
		fwd := make([]*linalg.Matrix, slices+1)
		fwd[0] = linalg.Identity(sys.Dim)
		sliceAmps := make([]float64, nc)
		for j := 0; j < slices; j++ {
			for k := 0; k < nc; k++ {
				sliceAmps[k] = amps[k][j]
			}
			props[j] = sys.Propagator(sliceAmps, dt)
			fwd[j+1] = props[j].Mul(fwd[j])
		}
		overlap := linalg.TraceOverlap(target, fwd[slices])
		fid := (real(overlap)*real(overlap) + imag(overlap)*imag(overlap)) / (dim * dim)
		if fid > best.Fidelity {
			best.Fidelity = fid
			best.Iters = iter
			best.Amps = cloneAmps(amps)
			if fid >= opts.TargetFidelity {
				return best
			}
		}

		// Backward pass.
		c := target.Dagger()
		grads := make([][]float64, nc)
		for k := range grads {
			grads[k] = make([]float64, slices)
		}
		for j := slices - 1; j >= 0; j-- {
			d := fwd[j+1].Mul(c)
			for k := 0; k < nc; k++ {
				t := traceProduct(d, sys.Controls[k].H)
				val := complex(0, -dt) * t
				g := 2 / (dim * dim) * (real(overlap)*real(val) + imag(overlap)*imag(val))
				grads[k][j] = g
			}
			c = c.Mul(props[j])
		}

		// ADAM ascent step with clipping.
		bc1 := 1 - math.Pow(beta1, float64(iter))
		bc2 := 1 - math.Pow(beta2, float64(iter))
		for k := 0; k < nc; k++ {
			bound := sys.Controls[k].Bound
			for j := 0; j < slices; j++ {
				g := grads[k][j]
				m[k][j] = beta1*m[k][j] + (1-beta1)*g
				v[k][j] = beta2*v[k][j] + (1-beta2)*g*g
				step := opts.LearningRate * (m[k][j] / bc1) / (math.Sqrt(v[k][j]/bc2) + eps)
				amps[k][j] += step
				if amps[k][j] > bound {
					amps[k][j] = bound
				} else if amps[k][j] < -bound {
					amps[k][j] = -bound
				}
			}
		}
	}
	return best
}

// traceProduct returns tr(A·B) without forming the product: the dense
// gradient trace that sparseTrace reproduces bit for bit.
func traceProduct(a, b *linalg.Matrix) complex128 {
	var t complex128
	n := a.Rows
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			t += a.Data[i*n+k] * b.Data[k*n+i]
		}
	}
	return t
}
