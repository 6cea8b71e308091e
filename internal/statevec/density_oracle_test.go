package statevec

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"paqoc/internal/linalg"
)

// krausDensity is the density-matrix simulator Density replaced, kept
// verbatim as the oracle: U ρ U† as separate per-column and per-row
// sub-block transforms, and T1/T2 decay as explicit Kraus operators summed
// into a 4^n scratch buffer. Density must reproduce it bit for bit.
type krausDensity struct {
	NumQubits int
	Rho       *linalg.Matrix
}

func newKrausDensity(n int) *krausDensity {
	d := &krausDensity{NumQubits: n, Rho: linalg.New(1<<n, 1<<n)}
	d.Rho.Set(0, 0, 1)
	return d
}

func (d *krausDensity) ApplyUnitary(u *linalg.Matrix, wires []int) {
	d.leftMul(u, wires)
	d.rightMulDagger(u, wires)
}

// leftMul computes ρ ← (U on wires) ρ by transforming every column.
func (d *krausDensity) leftMul(u *linalg.Matrix, wires []int) {
	dim := d.Rho.Rows
	k := len(wires)
	sub := 1 << k
	shift := make([]int, k)
	wireMask := 0
	for i, w := range wires {
		shift[i] = d.NumQubits - 1 - w
		wireMask |= 1 << shift[i]
	}
	idxs := make([]int, sub)
	amps := make([]complex128, sub)
	for base := 0; base < dim; base++ {
		if base&wireMask != 0 {
			continue
		}
		for s := 0; s < sub; s++ {
			idx := base
			for b := 0; b < k; b++ {
				if s>>(k-1-b)&1 == 1 {
					idx |= 1 << shift[b]
				}
			}
			idxs[s] = idx
		}
		for col := 0; col < dim; col++ {
			for s, idx := range idxs {
				amps[s] = d.Rho.Data[idx*dim+col]
			}
			for row := 0; row < sub; row++ {
				var acc complex128
				urow := u.Data[row*sub : (row+1)*sub]
				for s, a := range amps {
					if a != 0 {
						acc += urow[s] * a
					}
				}
				d.Rho.Data[idxs[row]*dim+col] = acc
			}
		}
	}
}

// rightMulDagger computes ρ ← ρ (U† on wires) by transforming every row
// with conj(U).
func (d *krausDensity) rightMulDagger(u *linalg.Matrix, wires []int) {
	dim := d.Rho.Rows
	k := len(wires)
	sub := 1 << k
	shift := make([]int, k)
	wireMask := 0
	for i, w := range wires {
		shift[i] = d.NumQubits - 1 - w
		wireMask |= 1 << shift[i]
	}
	idxs := make([]int, sub)
	amps := make([]complex128, sub)
	for base := 0; base < dim; base++ {
		if base&wireMask != 0 {
			continue
		}
		for s := 0; s < sub; s++ {
			idx := base
			for b := 0; b < k; b++ {
				if s>>(k-1-b)&1 == 1 {
					idx |= 1 << shift[b]
				}
			}
			idxs[s] = idx
		}
		for row := 0; row < dim; row++ {
			rowBase := row * dim
			for s, idx := range idxs {
				amps[s] = d.Rho.Data[rowBase+idx]
			}
			for j := 0; j < sub; j++ {
				var acc complex128
				ujrow := u.Data[j*sub : (j+1)*sub]
				for s, a := range amps {
					if a != 0 {
						acc += a * cmplx.Conj(ujrow[s])
					}
				}
				d.Rho.Data[rowBase+idxs[j]] = acc
			}
		}
	}
}

// ApplyKraus applies a single-qubit Kraus channel {K_i} to qubit q:
// ρ → Σ_i K_i ρ K_i†.
func (d *krausDensity) ApplyKraus(ks []*linalg.Matrix, q int) {
	dim := d.Rho.Rows
	sh := d.NumQubits - 1 - q
	acc := make([]complex128, len(d.Rho.Data))
	for _, kop := range ks {
		for i := 0; i < dim; i++ {
			ib := i >> sh & 1
			for j := 0; j < dim; j++ {
				jb := j >> sh & 1
				var v complex128
				for a := 0; a < 2; a++ {
					ka := kop.At(ib, a)
					if ka == 0 {
						continue
					}
					ia := (i &^ (1 << sh)) | a<<sh
					for b := 0; b < 2; b++ {
						kb := kop.At(jb, b)
						if kb == 0 {
							continue
						}
						jbIdx := (j &^ (1 << sh)) | b<<sh
						v += ka * d.Rho.Data[ia*dim+jbIdx] * cmplx.Conj(kb)
					}
				}
				acc[i*dim+j] += v
			}
		}
	}
	copy(d.Rho.Data, acc)
}

// Idle applies T1/T2 decay to every qubit for a duration (dt).
func (d *krausDensity) Idle(duration, t1, t2 float64) {
	if duration <= 0 {
		return
	}
	for q := 0; q < d.NumQubits; q++ {
		if t1 > 0 {
			d.ApplyKraus(krausAmplitudeDamping(1-math.Exp(-duration/t1)), q)
		}
		if gamma := krausDephasingProb(duration, t1, t2); gamma > 0 {
			d.ApplyKraus(krausPhaseDamping(gamma), q)
		}
	}
}

// krausDephasingProb converts T1/T2 into the pure-dephasing probability
// for a duration: 1/Tφ = 1/T2 − 1/(2·T1).
func krausDephasingProb(duration, t1, t2 float64) float64 {
	if t2 <= 0 {
		return 0
	}
	rate := 1 / t2
	if t1 > 0 {
		rate -= 1 / (2 * t1)
	}
	if rate <= 0 {
		return 0
	}
	return 1 - math.Exp(-duration*rate)
}

func krausAmplitudeDamping(gamma float64) []*linalg.Matrix {
	g := krausClamp01(gamma)
	k0 := linalg.FromRows([][]complex128{
		{1, 0},
		{0, complex(math.Sqrt(1-g), 0)},
	})
	k1 := linalg.FromRows([][]complex128{
		{0, complex(math.Sqrt(g), 0)},
		{0, 0},
	})
	return []*linalg.Matrix{k0, k1}
}

func krausPhaseDamping(gamma float64) []*linalg.Matrix {
	g := krausClamp01(gamma)
	k0 := linalg.FromRows([][]complex128{
		{1, 0},
		{0, complex(math.Sqrt(1-g), 0)},
	})
	k1 := linalg.FromRows([][]complex128{
		{0, 0},
		{0, complex(math.Sqrt(g), 0)},
	})
	return []*linalg.Matrix{k0, k1}
}

func krausClamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// StateFidelity returns ⟨ψ|ρ|ψ⟩ for a pure reference state.
func (d *krausDensity) StateFidelity(psi []complex128) float64 {
	rhoPsi := d.Rho.MulVec(psi)
	var f complex128
	for i := range psi {
		f += cmplx.Conj(psi[i]) * rhoPsi[i]
	}
	return real(f)
}

// randomUnitary returns exp(−iH) for a random Hermitian H on k qubits.
func randomUnitary(rng *rand.Rand, k int) *linalg.Matrix {
	dim := 1 << k
	h := linalg.New(dim, dim)
	for i := 0; i < dim; i++ {
		h.Set(i, i, complex(rng.NormFloat64(), 0))
		for j := i + 1; j < dim; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			h.Set(i, j, v)
			h.Set(j, i, cmplx.Conj(v))
		}
	}
	return linalg.ExpmHermitian(h, 1)
}

// randomCoherence draws a T1 or T2 in dt: 0 (channel off) a quarter of
// the time, otherwise log-uniform over 1..10⁶ so that damping ranges from
// total (γ = 1 for gates ≫ T1) to negligible.
func randomCoherence(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return 0
	}
	return math.Pow(10, 6*rng.Float64())
}

// TestDensityMatchesKrausOracle pins Density to the Kraus-operator
// simulator entry by entry, bit for bit: random 1–3-qubit unitaries on
// 1–6 qubits interleaved with decay under the default, random, and zero
// coherence times, then ⟨ψ|ρ|ψ⟩ against a random pure state.
func TestDensityMatchesKrausOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	entries, sequences := 0, 300
	if testing.Short() {
		sequences = 60
	}
	for seq := 0; seq < sequences; seq++ {
		n := 1 + seq%6
		t1, t2 := testT1, testT2
		if seq%3 != 0 {
			t1, t2 = randomCoherence(rng), randomCoherence(rng)
		}
		d, err := NewDensity(n)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newKrausDensity(n)
		for g := 0; g < 12; g++ {
			k := 1 + rng.Intn(min(n, 3))
			wires := rng.Perm(n)[:k]
			u := randomUnitary(rng, k)
			if err := d.ApplyUnitary(u, wires); err != nil {
				t.Fatal(err)
			}
			oracle.ApplyUnitary(u, wires)
			duration := 0.0
			if rng.Intn(5) != 0 {
				duration = 2000 * rng.Float64()
			}
			d.Decay(duration, t1, t2)
			oracle.Idle(duration, t1, t2)
		}
		for i, want := range oracle.Rho.Data {
			got := d.Rho.Data[i]
			if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
				math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
				t.Fatalf("sequence %d (n=%d, T1=%g, T2=%g): ρ entry %d = %v, oracle %v",
					seq, n, t1, t2, i, got, want)
			}
		}
		entries += len(oracle.Rho.Data)

		psi, _ := NewState(n)
		if err := psi.ApplyUnitary(randomUnitary(rng, n), rng.Perm(n)); err != nil {
			t.Fatal(err)
		}
		got, err := d.Fidelity(psi)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.StateFidelity(psi.Amps); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sequence %d: fidelity %v, oracle %v", seq, got, want)
		}
	}
	t.Logf("%d ρ entries bit-identical over %d sequences", entries, sequences)
}
