package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
)

// MulInto's bits are mulIntoGeneric's fused chains (DESIGN.md,
// "Destination-passing kernels") on every path: the AVX2+FMA kernels at
// 2/4/8/16, the AVX-512F kernels at 4/8 and the Go loop everywhere else,
// on any host. The experiment goldens do not see a product's low bits:
// moving every product bit from the unfused sum to the fused chains moved
// no golden, only TestMinimumTimeProbeReuse's fidelity bits and amplitude
// digests. What pins the kernels is here: TestMulKernelsBitIdentical
// compares MulInto, and TestEachKernelBitIdentical and FuzzMulKernels
// every kernel the host can run, with the Go loop bit for bit on inputs
// salted with the cases they special-case (±0 skip rows, rows of a pass
// that skip different k, NaN and Inf in skipped and unskipped positions,
// products that underflow); TestNoFMAHostSameBits,
// TestNoAVX512HostSameBits (kernels_amd64_test.go) and TestFMAZeroAddend
// cover hosts without the kernels, without AVX-512F or without FMA
// hardware; TestMulIntoWithinNaiveBound holds the fused product within
// the rounding-error bound of the unfused one it replaced.

func kernelRand(seed uint64) func() float64 {
	s := seed
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s%2000))/1000 - 1
	}
}

func randomTestMatrix(rows, cols int, seed uint64) *Matrix {
	m := New(rows, cols)
	next := kernelRand(seed)
	for i := range m.Data {
		m.Data[i] = complex(next(), next())
	}
	return m
}

// saltEdgeCases plants zeros (skip rows), negative zeros, NaN, and Inf
// at deterministic positions.
func saltEdgeCases(a, b *Matrix) {
	nan := math.NaN()
	for i := 0; i < len(a.Data); i += 7 {
		a.Data[i] = 0
	}
	for i := 3; i < len(a.Data); i += 11 {
		a.Data[i] = complex(math.Copysign(0, -1), 0)
	}
	if len(b.Data) > 5 {
		b.Data[5] = complex(nan, 1)
	}
	if len(b.Data) > 9 {
		b.Data[9] = complex(math.Inf(1), -2)
	}
}

// sameBits treats all NaNs as equal (payload propagation through vector
// ops is not specified) but otherwise requires exact bit equality,
// including the sign of zero.
func sameBits(x, y complex128) bool {
	return sameFloatBits(real(x), real(y)) && sameFloatBits(imag(x), imag(y))
}

func sameFloatBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// saltUnderflow plants products that underflow: parts of ±2^-600 in a
// and b, whose products round to ±0 from a nonzero exact value, and
// entries of a whose real or imaginary part alone is −0, so a
// non-skipped row multiplies by −0.
func saltUnderflow(a, b *Matrix) {
	negZero := math.Copysign(0, -1)
	for i := 1; i < len(a.Data); i += 5 {
		a.Data[i] = complex(-0x1p-600, 0x1p-600)
	}
	for i := 2; i < len(a.Data); i += 9 {
		a.Data[i] = complex(negZero, real(a.Data[i]))
	}
	for i := 0; i < len(b.Data); i += 3 {
		b.Data[i] = complex(0x1p-600, -0x1p-600)
	}
}

// TestMulKernelsBitIdentical compares MulInto with mulIntoGeneric bit
// for bit at dims 1–20, where 2, 4, 8 and 16 dispatch to the kernels on
// a host with AVX2 and FMA: random operands, then the same salted with
// ±0 skip rows, NaN and Inf, and with underflowing products.
func TestMulKernelsBitIdentical(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for trial := uint64(0); trial < 4; trial++ {
			a := randomTestMatrix(n, n, 1+trial*31+uint64(n))
			b := randomTestMatrix(n, n, 2+trial*37+uint64(n))
			switch trial {
			case 1:
				saltEdgeCases(a, b)
			case 2:
				saltUnderflow(a, b)
			case 3:
				saltUnderflow(a, b)
				saltEdgeCases(a, b)
			}
			want := New(n, n)
			got := New(n, n)
			mulIntoGeneric(want, a, b)
			MulInto(got, a, b)
			for i := range want.Data {
				if !sameBits(want.Data[i], got.Data[i]) {
					t.Fatalf("n=%d trial=%d: element %d differs: generic %v, dispatched %v",
						n, trial, i, want.Data[i], got.Data[i])
				}
			}
		}
	}
}

// saltRowPairs makes the rows of a that a two-row pass runs together,
// 2p and 2p+1, disagree on every k: at even k+p row 2p is ±0 and row
// 2p+1 is not, at odd k+p the other way round, so each row of a pair
// skips the k the other meets, in both orders. b's rows 1 and 2 get Inf
// and NaN, so a row that fails to skip, or picks up its partner's terms,
// shows it.
func saltRowPairs(a, b *Matrix) {
	n := a.Cols
	for r := 0; r+1 < a.Rows; r += 2 {
		for k := 0; k < n; k++ {
			skip := r + (k+r/2)%2
			a.Data[skip*n+k] = complex(math.Copysign(0, float64(k%3)-1), 0)
		}
	}
	if b.Rows > 2 {
		b.Data[b.Cols] = complex(math.Inf(1), 0)
		b.Data[2*b.Cols+b.Cols-1] = complex(2, math.NaN())
	}
}

// saltSkippedPoison sets column k of a to ±0 in every row and fills row
// k of b with Inf and NaN, which no entry may then meet.
func saltSkippedPoison(a, b *Matrix, k int) {
	for r := 0; r < a.Rows; r++ {
		a.Data[r*a.Cols+k] = complex(math.Copysign(0, float64(r%2)-0.5), 0)
	}
	for c := 0; c < b.Cols; c++ {
		b.Data[k*b.Cols+c] = [3]complex128{complex(math.Inf(1), 0), complex(math.NaN(), 1), complex(0, math.Inf(-1))}[c%3]
	}
}

// TestEachKernelBitIdentical calls every product kernel the host can run
// (hostKernels: the AVX2+FMA kernels at 2, 4, 8 and 16 and the AVX-512F
// ones at 4 and 8) directly, not through MulInto, and compares each with
// mulIntoGeneric bit for bit: random operands, the salts of
// TestMulKernelsBitIdentical, rows of a two-row pass that disagree on
// skipping k in both orders, Inf and NaN in a row of b that only skipped
// k meet, and random scatters of ±0, NaN, Inf and underflowing parts.
func TestEachKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	ran := 0
	for _, n := range []int{2, 4, 8, 16} {
		for _, kern := range hostKernels(n) {
			ran++
			for trial := 0; trial < 300; trial++ {
				a := randomTestMatrix(n, n, uint64(19*n+trial))
				b := randomTestMatrix(n, n, uint64(23*n+trial))
				switch trial {
				case 0:
				case 1:
					saltEdgeCases(a, b)
				case 2:
					saltUnderflow(a, b)
				case 3:
					saltRowPairs(a, b)
				case 4:
					saltRowPairs(a, b)
					saltUnderflow(a, b)
				case 5:
					saltSkippedPoison(a, b, n-1)
				case 6:
					saltSkippedPoison(a, b, 0)
					saltRowPairs(a, b)
				default:
					scatterSpecials(a, b, rng)
				}
				want, got := New(n, n), New(n, n)
				mulIntoGeneric(want, a, b)
				kern.mul(&got.Data[0], &a.Data[0], &b.Data[0])
				for i := range want.Data {
					if !sameBits(want.Data[i], got.Data[i]) {
						t.Fatalf("%s n=%d trial %d: entry %d is %v, Go loop %v", kern.name, n, trial, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
	if ran == 0 {
		t.Skip("no AVX2 and FMA: the host runs no product kernel")
	}
}

// scatterSpecials plants ±0 entries in a (some rows nearly empty) and a
// few NaN, Inf and underflowing parts in a and b, at random positions.
func scatterSpecials(a, b *Matrix, rng *rand.Rand) {
	zeroShare := rng.Float64()
	for i := range a.Data {
		if rng.Float64() < zeroShare {
			a.Data[i] = complex(math.Copysign(0, rng.Float64()-0.5), math.Copysign(0, rng.Float64()-0.5))
		}
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-600, -0x1p-600, math.Copysign(0, -1)}
	for plant := rng.Intn(4); plant > 0; plant-- {
		m := a
		if rng.Intn(2) == 0 {
			m = b
		}
		i := rng.Intn(len(m.Data))
		v := specials[rng.Intn(len(specials))]
		if rng.Intn(2) == 0 {
			m.Data[i] = complex(v, imag(m.Data[i]))
		} else {
			m.Data[i] = complex(real(m.Data[i]), v)
		}
	}
}

// TestMulGenericRowLists checks the Go loop's two ways of skipping zeros
// against the contract written out per entry: rows with up to 64
// nonzeros, scanned once into a list, and denser rows, scanned per entry,
// at dims 63–66 and 100, dense and with about a third of a's entries
// zero or −0 and an Inf in a row of b that only those zeros meet.
func TestMulGenericRowLists(t *testing.T) {
	for _, n := range []int{63, 64, 65, 66, 100} {
		for trial := uint64(0); trial < 2; trial++ {
			a := randomTestMatrix(n, n, 5+trial*3+uint64(n))
			b := randomTestMatrix(n, n, 6+trial*5+uint64(n))
			if trial == 1 {
				for i := range a.Data {
					if i%3 == 0 || i%n == 1 {
						a.Data[i] = complex(math.Copysign(0, float64(i%2)-0.5), 0)
					}
				}
				b.Data[n+2] = complex(math.Inf(1), 0)
			}
			got := New(n, n)
			mulIntoGeneric(got, a, b)
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					var pr, pi, qr, qi float64
					for k := 0; k < n; k++ {
						av, bv := a.Data[r*n+k], b.Data[k*n+c]
						if av == 0 {
							continue
						}
						pr = fma(real(av), real(bv), pr)
						pi = fma(real(av), imag(bv), pi)
						qr = fma(imag(av), imag(bv), qr)
						qi = fma(imag(av), real(bv), qi)
					}
					if want := complex(pr-qr, pi+qi); !sameBits(got.Data[r*n+c], want) {
						t.Fatalf("n=%d trial %d: entry (%d, %d) is %v, per-entry contract %v", n, trial, r, c, got.Data[r*n+c], want)
					}
				}
			}
		}
	}
}

func TestMulVecKernelsBitIdentical(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for trial := uint64(0); trial < 4; trial++ {
			m := randomTestMatrix(n, n, 3+trial*41+uint64(n))
			vm := randomTestMatrix(1, n, 4+trial*43+uint64(n))
			if trial%2 == 1 {
				saltEdgeCases(m, vm)
			}
			v := vm.Data
			want := make([]complex128, n)
			got := make([]complex128, n)
			mulVecIntoGeneric(want, m, v)
			MulVecInto(got, m, v)
			for i := range want {
				if !sameBits(want[i], got[i]) {
					t.Fatalf("n=%d trial=%d: element %d differs: generic %v, dispatched %v",
						n, trial, i, want[i], got[i])
				}
			}
		}
	}
}

// Non-square products must still fall through to the generic kernel.
func TestMulKernelsNonSquareFallback(t *testing.T) {
	a := randomTestMatrix(8, 4, 7)
	b := randomTestMatrix(4, 8, 8)
	want := New(8, 8)
	got := New(8, 8)
	mulIntoGeneric(want, a, b)
	MulInto(got, a, b)
	for i := range want.Data {
		if !sameBits(want.Data[i], got.Data[i]) {
			t.Fatalf("element %d differs on non-square product", i)
		}
	}
}

func benchMulPair(b *testing.B, n int, generic bool) {
	x := randomTestMatrix(n, n, 101)
	y := randomTestMatrix(n, n, 102)
	dst := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if generic {
			mulIntoGeneric(dst, x, y)
		} else {
			MulInto(dst, x, y)
		}
	}
}

func BenchmarkMulGeneric8(b *testing.B)     { benchMulPair(b, 8, true) }
func BenchmarkMulDispatched2(b *testing.B)  { benchMulPair(b, 2, false) }
func BenchmarkMulDispatched4(b *testing.B)  { benchMulPair(b, 4, false) }
func BenchmarkMulDispatched8(b *testing.B)  { benchMulPair(b, 8, false) }
func BenchmarkMulGeneric16(b *testing.B)    { benchMulPair(b, 16, true) }
func BenchmarkMulDispatched16(b *testing.B) { benchMulPair(b, 16, false) }

// mulIntoUnfused is MulInto before the fused contract: per entry one
// complex accumulator over k ascending from +0, skipping a[r][k] == 0,
// adding Go's complex product with each real product rounded on its own
// (CMul, so no architecture fuses the oracle either). It is the tolerance
// oracle of TestMulIntoWithinNaiveBound and FuzzMulKernels.
func mulIntoUnfused(dst, a, b *Matrix) {
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Cols : (r+1)*a.Cols]
		drow := dst.Data[r*b.Cols : (r+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			krow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for c, bv := range krow {
				drow[c] += CMul(av, bv)
			}
		}
	}
}

// naiveBound is the distance allowed between entry (r, c) of the fused
// and of the unfused product: 2√2·(γ_{n+2}·Σ_k |a_rk|·|b_kc| + n·2^-1074)
// with γ_m = m·u/(1 − m·u) and u = 2^-53, for n = a.Cols. Each sum is
// within γ_{n+1} of the exact one, part by part, relative to
// Σ_k |a_rk|·|b_kc| (DESIGN.md, "Destination-passing kernels"); the
// second term covers products that underflow. It also returns the first
// term without the 2√2, the scale the largest ratio is reported in.
func naiveBound(a, b *Matrix, r, c int) (bound, scale float64) {
	n := a.Cols
	var s float64
	for k := 0; k < n; k++ {
		s += cmplx.Abs(a.Data[r*n+k]) * cmplx.Abs(b.Data[k*b.Cols+c])
	}
	const u = 0x1p-53
	m := float64(n + 2)
	scale = m * u / (1 - m*u) * s
	return 2 * math.Sqrt2 * (scale + float64(n)*0x1p-1074), scale
}

// TestMulIntoWithinNaiveBound pins MulInto within naiveBound of the
// unfused product at dims 1–20 on random operands, unitary ones, and two
// cancellation-heavy kinds: U·U†, whose off-diagonal entries cancel to
// rounding from terms of size 1/√n, and operands whose parts span
// 2^±30, so a few large terms cancel around small ones.
func TestMulIntoWithinNaiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	worst := 0.0
	for n := 1; n <= 20; n++ {
		for trial := 0; trial < 6; trial++ {
			u := ExpmHermitian(randomHermitian(n, rng), 1+rng.Float64())
			mixed := func() *Matrix {
				m := New(n, n)
				for i := range m.Data {
					m.Data[i] = complex(math.Ldexp(rng.NormFloat64(), rng.Intn(61)-30), math.Ldexp(rng.NormFloat64(), rng.Intn(61)-30))
				}
				return m
			}
			for kind, ab := range map[string][2]*Matrix{
				"random":  {randomTestMatrix(n, n, uint64(7*n+trial)), randomTestMatrix(n, n, uint64(11*n+trial))},
				"unitary": {u, ExpmHermitian(randomHermitian(n, rng), 2)},
				"U·U†":    {u, u.Dagger()},
				"2^±30":   {mixed(), mixed()},
			} {
				a, b := ab[0], ab[1]
				got, want := New(n, n), New(n, n)
				MulInto(got, a, b)
				mulIntoUnfused(want, a, b)
				for r := 0; r < n; r++ {
					for c := 0; c < n; c++ {
						bound, scale := naiveBound(a, b, r, c)
						d := cmplx.Abs(got.Data[r*n+c] - want.Data[r*n+c])
						if !(d <= bound) {
							t.Fatalf("n=%d %s: entry (%d, %d) is %v, unfused %v: distance %g, bound %g",
								n, kind, r, c, got.Data[r*n+c], want.Data[r*n+c], d, bound)
						}
						if scale > 0 {
							worst = max(worst, d/scale)
						}
					}
				}
			}
		}
	}
	t.Logf("largest distance %.3g·γ_{n+2}·Σ|a||b| (bound 2√2 ≈ 2.83)", worst)
}

// FuzzMulKernels compares MulInto, and every kernel the host can run at
// the dimension (hostKernels), with mulIntoGeneric bit for bit at the
// kernel dimensions 2, 4, 8 and 16, on operands decoded from raw with a
// row of a planted at ±0 (every k skipped), NaN and Inf planted in a and
// b, and, for finite operands, within naiveBound of the unfused product
// wherever Σ|a||b| stays far from overflow.
func FuzzMulKernels(f *testing.F) {
	f.Add(uint8(1), 1.0, uint8(0), []byte{1, 2, 3, 250, 7, 9, 0, 128})
	f.Add(uint8(2), 1e-3, uint8(0x13), []byte{90, 12, 200, 4, 33, 255, 17, 1, 2, 3})
	f.Add(uint8(3), 3e150, uint8(0x2c), []byte{127, 40, 129, 0, 64, 200})
	f.Add(uint8(0), 0x1p-600, uint8(0), []byte{129, 3, 127, 5, 1, 255})
	f.Add(uint8(1), 5e-324, uint8(0x41), []byte{100, 140, 3})
	f.Add(uint8(2), math.Inf(1), uint8(0), []byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dim uint8, scale float64, plant uint8, raw []byte) {
		n := []int{2, 4, 8, 16}[dim%4]
		a := fuzzMatrix(n, scale, false, raw)
		rev := make([]byte, len(raw))
		for i, v := range raw {
			rev[len(raw)-1-i] = v
		}
		b := fuzzMatrix(n, scale, false, rev)
		row := int(plant>>4) % n
		switch plant & 3 {
		case 1: // a row of ±0: every k skipped
			for c := 0; c < n; c++ {
				a.Data[row*n+c] = complex(math.Copysign(0, float64(c%2)-0.5), 0)
			}
		case 2:
			a.Data[row*n+int(plant)%n] = complex(math.NaN(), 1)
		case 3:
			b.Data[row*n+int(plant)%n] = complex(math.Inf(1), -2)
		}
		if plant&4 != 0 {
			b.Data[int(plant)%len(b.Data)] = complex(1, math.Inf(-1))
		}
		want, got := New(n, n), New(n, n)
		mulIntoGeneric(want, a, b)
		for _, kern := range hostKernels(n) {
			fillNaN(got)
			kern.mul(&got.Data[0], &a.Data[0], &b.Data[0])
			for i := range want.Data {
				if !sameBits(want.Data[i], got.Data[i]) {
					t.Fatalf("%s n=%d: entry %d is %v, Go loop %v", kern.name, n, i, got.Data[i], want.Data[i])
				}
			}
		}
		MulInto(got, a, b)
		for i := range want.Data {
			if !sameBits(want.Data[i], got.Data[i]) {
				t.Fatalf("n=%d: entry %d is %v, Go loop %v", n, i, got.Data[i], want.Data[i])
			}
		}
		if !allFinite(a) || !allFinite(b) {
			return
		}
		unfused := New(n, n)
		mulIntoUnfused(unfused, a, b)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				bound, scale := naiveBound(a, b, r, c)
				if !(scale < 1e300) {
					continue
				}
				if d := cmplx.Abs(got.Data[r*n+c] - unfused.Data[r*n+c]); !(d <= bound) {
					t.Fatalf("n=%d: entry (%d, %d) is %v, unfused %v: distance %g, bound %g",
						n, r, c, got.Data[r*n+c], unfused.Data[r*n+c], d, bound)
				}
			}
		}
	})
}

// TestFMAZeroAddend checks fma against the FMA instruction on every
// triple of a set of special and random values. Go's software math.FMA,
// which a host without FMA hardware runs, returns x*y + z for a zero z,
// so a negative product that underflows comes out +0 where the
// instruction gives IEEE 754's −0; fma computes a zero addend's case in
// Go instead. A call of math.FMA through a function value is not replaced
// by the instruction, so it runs the software path here: it must agree
// with the instruction on every triple with a nonzero addend, the only
// ones fma hands it.
func TestFMAZeroAddend(t *testing.T) {
	if runtime.GOARCH == "amd64" && !hasAVX2FMA {
		t.Skip("no FMA hardware to compare with")
	}
	soft := math.FMA
	if x, y := -0x1p-600, 0x1p-600; !math.Signbit(math.FMA(x, y, 0)) || math.Signbit(soft(x, y, 0)) {
		t.Fatalf("fma(−2^-600, 2^-600, +0): hardware %v, software %v; want −0 and +0", math.FMA(x, y, 0), soft(x, y, 0))
	}
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 1, -1, 0.5, -3, 1 + 0x1p-52, 1 - 0x1p-53, 0x1p-600, -0x1p-600,
		0x1p-537, -0x1p-538, 5e-324, -5e-324, 0x1p-1022, -0x1p-1022, 1e300, -1e300, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 60; i++ {
		vals = append(vals, math.Ldexp(rng.NormFloat64(), rng.Intn(2200)-1100))
	}
	for _, x := range vals {
		for _, y := range vals {
			for _, z := range vals {
				hw := math.FMA(x, y, z)
				if got := fma(x, y, z); !sameFloatBits(got, hw) {
					t.Fatalf("fma(%g, %g, %g) = %g, instruction %g", x, y, z, got, hw)
				}
				if z != 0 {
					if s := soft(x, y, z); !sameFloatBits(s, hw) {
						t.Fatalf("software math.FMA(%g, %g, %g) = %g, instruction %g", x, y, z, s, hw)
					}
				}
			}
		}
	}
}

// TestSqrtColSumsMatchLoop pins the AVX2 column sums behind sqrtOneNorm
// against the Go loop, column by column under math.Float64bits, at
// dimensions 4, 8 and 16, on entries with −0 and subnormal parts, a NaN
// column (which the maximum skips) and a square that overflows (where
// OneNorm decides); the whole norm must match with the kernel turned off.
func TestSqrtColSumsMatchLoop(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("no AVX2 and FMA: sqrtOneNorm runs the Go loop only")
	}
	defer func() { hasAVX2FMA = true }()
	rng := rand.New(rand.NewSource(27))
	negZero := math.Copysign(0, -1)
	part := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return negZero
		case 1:
			return 5e-324 * float64(rng.Intn(9)-4)
		case 2:
			return 0
		}
		return math.Ldexp(2*rng.Float64()-1, rng.Intn(80)-40)
	}
	for _, n := range []int{4, 8, 16} {
		for trial := 0; trial < 200; trial++ {
			m := New(n, n)
			for i := range m.Data {
				m.Data[i] = complex(part(), part())
			}
			switch trial % 4 {
			case 1:
				m.Data[rng.Intn(n*n)] = complex(math.NaN(), part())
			case 2:
				m.Data[rng.Intn(n*n)] = complex(part(), 3e160)
			case 3:
				m.Data[rng.Intn(n*n)] = complex(math.Inf(-1), 0)
			}
			var sums [16]float64
			if !sqrtColSums(&sums, m) {
				t.Fatalf("n=%d: the kernel did not run", n)
			}
			for i := 0; i < n; i++ {
				col := i&^3 | [4]int{0, 2, 1, 3}[i&3]
				var want float64
				for r := 0; r < n; r++ {
					re, im := real(m.Data[r*n+col]), imag(m.Data[r*n+col])
					want += math.Sqrt(float64(re*re) + float64(im*im))
				}
				if !sameFloatBits(sums[i], want) {
					t.Fatalf("n=%d trial %d: column %d sums to %v in the kernel, %v in the loop", n, trial, col, sums[i], want)
				}
			}
			got := sqrtOneNorm(m)
			hasAVX2FMA = false
			want := sqrtOneNorm(m)
			hasAVX2FMA = true
			if !sameFloatBits(got, want) {
				t.Fatalf("n=%d trial %d: norm %v with the kernel, %v without", n, trial, got, want)
			}
		}
	}
}
