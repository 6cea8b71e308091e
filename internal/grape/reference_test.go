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
// bit-for-bit (TestOptimizeMatchesReference). Its changes since are the
// warm start's clip to the control bounds and the explicit rounding of
// every product, so that arm64 fuses none, both of which optimize shares.
// Its figures as the "before" baseline of the kernel benchmarks are on
// record in BENCH_003.json.
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
			// Rounded here, or arm64 fuses rand's own scaling into the doubling.
			u := float64(rng.Float64())
			amps[k][j] = sys.Controls[k].Bound * 0.2 * (float64(u*2) - 1)
		}
	}
	if guess := alignGuess(sys, opts.InitialGuess); guess != nil {
		for k := 0; k < nc; k++ {
			src := guess[k]
			srcN := len(src)
			for j := 0; j < slices; j++ {
				amps[k][j] = clip(src[j*srcN/slices], sys.Controls[k].Bound)
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
	dt := sliceDt

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
		fid := (float64(real(overlap)*real(overlap)) + float64(imag(overlap)*imag(overlap))) / (dim * dim)
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
				val := linalg.CMul(complex(0, -dt), t)
				g := 2 / (dim * dim) * (float64(real(overlap)*real(val)) + float64(imag(overlap)*imag(val)))
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
				m[k][j] = float64(beta1*m[k][j]) + float64((1-beta1)*g)
				v[k][j] = float64(beta2*v[k][j]) + float64((1-beta2)*g*g)
				step := learningRate * (m[k][j] / bc1) / (math.Sqrt(v[k][j]/bc2) + eps)
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
			t += linalg.CMul(a.Data[i*n+k], b.Data[k*n+i])
		}
	}
	return t
}
