// Package latency provides the analytical pulse-latency model of §III-B:
// a fast, deterministic surrogate for GRAPE that obeys the paper's
// Observations 1 and 2 and is calibrated against the real optimizer in
// internal/grape. Its core is the Weyl-chamber (canonical) decomposition of
// two-qubit unitaries, from which the minimum XY-interaction time follows:
// under a bounded flip-flop coupling g(XX+YY)/2 with fast local drives, a
// class (c1 ≥ c2 ≥ c3) needs interaction time (2·c1 + c3)/g — π/(2g) for
// CX and iSWAP, 3π/(4g) for SWAP — which matches our GRAPE measurements.
package latency

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"paqoc/internal/linalg"
)

// mat4 is a 4×4 complex matrix, row-major.
type mat4 [4][4]complex128

// magicBasis is the Bell ("magic") basis transform M: canonical two-qubit
// gates are diagonal in this basis, so the spectrum of (M†UM)ᵀ(M†UM) is a
// local-gate invariant that pins down the Weyl coordinates.
var magicBasis = func() mat4 {
	s := complex(1/math.Sqrt2, 0)
	i := complex(0, 1/math.Sqrt2)
	return mat4{
		{s, 0, 0, i},
		{0, i, s, 0},
		{0, i, -s, 0},
		{s, 0, 0, -i},
	}
}()

// unitaryTol bounds the Frobenius norm ‖U†U − I‖ that WeylCoordinates
// accepts. Products of exact gate matrices stay many orders of magnitude
// below it; a matrix above it is not a unitary and has no Weyl class.
const unitaryTol = 1e-8

// chamberTol is how far outside the chamber π/2 ≥ c1 ≥ c2 ≥ c3 ≥ 0 a
// spectrum-consistent image may fall, through eigenphase rounding and the
// unitarity slack above, and still be clamped onto it.
const chamberTol = 1e-6

// coordQuantum is the grid WeylCoordinates rounds its result to. Rounding
// noise in the eigenphases (~1e-15) would otherwise give locally
// equivalent unitaries coordinates a few ulps apart, and break the exact
// ties between equal merge scores in the compiler's ranking.
const coordQuantum = 0x1p-32

var (
	// ErrNonFinite reports a NaN or infinite matrix entry.
	ErrNonFinite = errors.New("latency: matrix has a non-finite entry")
	// ErrNonUnitary reports a Frobenius norm ‖U†U − I‖ above 1e-8.
	ErrNonUnitary = errors.New("latency: matrix is not unitary")
)

// WeylCoordinates returns the canonical-class coordinates (c1 ≥ c2 ≥ c3,
// each in [0, π/2]) of a 4×4 unitary: u is locally equivalent to
// exp(-i(c1·XX + c2·YY + c3·ZZ)). Among spectrum-consistent chamber points
// it returns the one with the smallest XY-interaction time, which is the
// quantity the latency model consumes.
//
// The coordinates follow in closed form from the eigenphases θ of
// m = (M†UM)ᵀ(M†UM) (Zhang, Vala, Sastry & Whaley, PRA 67, 042313, 2003):
// the canonical gate has m-spectrum {exp(i(s − 2l_k))} with
// l = (c1−c2+c3, −c1+c2+c3, c1+c2−c3, −c1−c2−c3), s ∈ {0, π} the sign
// left open by the SU(4) normalization. Every assignment of the phases to
// l1..l3, every sign and every branch l_k = −(θ − s)/2 + n_k·π gives one
// image c = ((l1+l3)/2, (l2+l3)/2, (l1+l2)/2), the fourth phase following
// from det m = 1. Images inside the chamber are kept; the least
// interaction time 2·c1 + c3 wins, ties going to the smaller c1 − c2, then
// to the lexicographically smaller point. Mirror images are not folded.
// The result is rounded to multiples of 2⁻³² rad.
//
// Inputs with a non-finite entry or ‖U†U − I‖ > 1e-8 are rejected
// with ErrNonFinite or ErrNonUnitary.
func WeylCoordinates(u *linalg.Matrix) ([3]float64, error) {
	theta, err := magicPhases(u)
	if err != nil {
		return [3]float64{}, err
	}
	var best [3]float64
	found := false
	for _, s := range [2]float64{0, math.Pi} {
		for _, p := range phaseAssignments {
			var base [3]float64
			for k := range base {
				base[k] = -(theta[p[k]] - s) / 2
			}
			// base ∈ [−π/2, π], and a chamber point has l1 ∈ [0, π/2],
			// l2 ∈ [−π/2, π/2], l3 ∈ [0, π]: branches −1..1 reach them.
			for n1 := -1; n1 <= 1; n1++ {
				l1 := base[0] + float64(n1)*math.Pi
				for n2 := -1; n2 <= 1; n2++ {
					l2 := base[1] + float64(n2)*math.Pi
					for n3 := -1; n3 <= 1; n3++ {
						l3 := base[2] + float64(n3)*math.Pi
						c := [3]float64{(l1 + l3) / 2, (l2 + l3) / 2, (l1 + l2) / 2}
						if c[0] > math.Pi/2+chamberTol || c[1] > c[0]+chamberTol ||
							c[2] > c[1]+chamberTol || c[2] < -chamberTol {
							continue
						}
						c = clampChamber(c)
						if !found || lessImage(c, best) {
							best, found = c, true
						}
					}
				}
			}
		}
	}
	if !found {
		return [3]float64{}, fmt.Errorf("latency: no Weyl-chamber point matches the spectrum %v", theta)
	}
	for k, v := range best {
		best[k] = math.Min(math.Round(v/coordQuantum)*coordQuantum, math.Pi/2)
	}
	return best, nil
}

// InteractionTime returns the minimum XY-coupling time, in units of 1/g,
// needed to realize the canonical class c (sorted descending): 2·c1 + c3.
func InteractionTime(c [3]float64) float64 { return 2*c[0] + c[2] }

// LocalContent measures how unbalanced the class is between the two
// XY-native axes; classes with c1 ≠ c2 need echo sequences with extra
// local rotations (CX does, iSWAP does not).
func LocalContent(c [3]float64) float64 { return c[0] - c[1] }

// magicPhases validates u and returns the sorted eigenphases of
// m = (M†ŨM)ᵀ(M†ŨM), Ũ = u normalized to SU(4).
func magicPhases(u *linalg.Matrix) ([4]float64, error) {
	if u.Rows != 4 || u.Cols != 4 {
		return [4]float64{}, fmt.Errorf("latency: WeylCoordinates wants a 4x4 unitary, got %dx%d", u.Rows, u.Cols)
	}
	var a mat4
	for r := range a {
		for c := range a[r] {
			v := u.At(r, c)
			if math.IsNaN(real(v)) || math.IsNaN(imag(v)) || math.IsInf(real(v), 0) || math.IsInf(imag(v), 0) {
				return [4]float64{}, ErrNonFinite
			}
			a[r][c] = v
		}
	}
	// Written so that a NaN defect (overflowing entries) is rejected too.
	if d := unitarityDefect(&a); !(d <= unitaryTol) {
		return [4]float64{}, fmt.Errorf("%w: ‖U†U − I‖ = %.3g > %g", ErrNonUnitary, d, unitaryTol)
	}
	root := phaseRoot4(det4(u))
	for r := range a {
		for c := range a[r] {
			a[r][c] /= root
		}
	}
	ub := mul4(mul4(transpose4(magicBasis, true), a), magicBasis)
	theta, err := symmetricUnitaryPhases(mul4(transpose4(ub, false), ub))
	if err != nil {
		return [4]float64{}, err
	}
	sort.Float64s(theta[:])
	return theta, nil
}

// lessImage orders chamber images: least interaction time, then least
// local content, then lexicographically. Differences within rounding of
// equal values count as ties.
func lessImage(a, b [3]float64) bool {
	const tie = 1e-12
	if ta, tb := InteractionTime(a), InteractionTime(b); math.Abs(ta-tb) > tie {
		return ta < tb
	}
	if la, lb := LocalContent(a), LocalContent(b); math.Abs(la-lb) > tie {
		return la < lb
	}
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// clampChamber moves a point within chamberTol of the chamber onto it.
func clampChamber(c [3]float64) [3]float64 {
	for k, v := range c {
		c[k] = math.Min(math.Max(v, 0), math.Pi/2)
	}
	// Restore c1 ≥ c2 ≥ c3 after clamping.
	for _, k := range [3]int{0, 1, 0} {
		if c[k] < c[k+1] {
			c[k], c[k+1] = c[k+1], c[k]
		}
	}
	return c
}

// phaseAssignments lists the 24 ordered choices of three of the four
// eigenphases for l1, l2, l3.
var phaseAssignments = func() [][3]int {
	var out [][3]int
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				if i != j && i != k && j != k {
					out = append(out, [3]int{i, j, k})
				}
			}
		}
	}
	return out
}()

func mul4(a, b mat4) mat4 {
	var out mat4
	for r := range out {
		for c := range out[r] {
			var s complex128
			for k := 0; k < 4; k++ {
				s += a[r][k] * b[k][c]
			}
			out[r][c] = s
		}
	}
	return out
}

// transpose4 returns mᵀ, or m† when conj is set.
func transpose4(m mat4, conj bool) mat4 {
	var out mat4
	for r := range out {
		for c := range out[r] {
			out[r][c] = m[c][r]
			if conj {
				out[r][c] = cmplx.Conj(out[r][c])
			}
		}
	}
	return out
}

// unitarityDefect returns the Frobenius norm ‖A†A − I‖.
func unitarityDefect(a *mat4) float64 {
	var sum float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var g complex128
			for k := 0; k < 4; k++ {
				g += cmplx.Conj(a[k][i]) * a[k][j]
			}
			if i == j {
				g--
			}
			sum += real(g)*real(g) + imag(g)*imag(g)
		}
	}
	return math.Sqrt(sum)
}

// pencilWeights are the μ tried by symmetricUnitaryPhases, irrational so
// that no structured spectrum collides in Re m + μ·Im m.
var pencilWeights = [...]float64{(math.Sqrt(5) - 1) / 2, math.E - 2, math.Pi - 3}

// symmetricUnitaryPhases returns the eigenphases of a symmetric unitary m.
// Its real and imaginary parts are commuting real symmetric matrices, so
// one real orthogonal V diagonalizes both: V comes from Jacobi rotations
// on Re m + μ·Im m, and the phases are those of diag(VᵀmV). Unlike
// polynomial root-finding this stays accurate to rounding at repeated
// eigenvalues (CX, SWAP, local gates). A μ under which two distinct
// eigenvalues of m collide leaves VᵀmV visibly off-diagonal; the next μ
// is tried then.
func symmetricUnitaryPhases(m mat4) ([4]float64, error) {
	for _, mu := range pencilWeights {
		var p [4][4]float64
		for r := range p {
			for c := range p[r] {
				// Symmetrize against rounding in the product ubᵀ·ub.
				v := (m[r][c] + m[c][r]) / 2
				p[r][c] = real(v) + mu*imag(v)
			}
		}
		v := jacobiEigenvectors(p)
		var d mat4
		for r := range d {
			for c := range d[r] {
				var s complex128
				for i := 0; i < 4; i++ {
					for j := 0; j < 4; j++ {
						s += complex(v[i][r]*v[j][c], 0) * m[i][j]
					}
				}
				d[r][c] = s
			}
		}
		var off float64
		for r := range d {
			for c := range d[r] {
				if r != c {
					off = math.Max(off, cmplx.Abs(d[r][c]))
				}
			}
		}
		if off > 1e-6 {
			continue
		}
		var theta [4]float64
		for k := range theta {
			theta[k] = cmplx.Phase(d[k][k])
		}
		return theta, nil
	}
	return [4]float64{}, fmt.Errorf("latency: eigendecomposition of the magic-basis invariant failed")
}

// jacobiEigenvectors returns an orthogonal V with VᵀpV diagonal for a real
// symmetric p, by cyclic Jacobi rotations (quadratically convergent; a
// 4×4 needs a handful of sweeps).
func jacobiEigenvectors(p [4][4]float64) [4][4]float64 {
	var v [4][4]float64
	for i := range v {
		v[i][i] = 1
	}
	for sweep := 0; sweep < 32; sweep++ {
		var off, diag float64
		for i := 0; i < 4; i++ {
			diag += p[i][i] * p[i][i]
			for j := i + 1; j < 4; j++ {
				off += p[i][j] * p[i][j]
			}
		}
		if off <= 1e-32*diag || off == 0 {
			break
		}
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 4; j++ {
				if p[i][j] == 0 {
					continue
				}
				// Rotation zeroing p[i][j] (Rutishauser's stable form).
				h := (p[j][j] - p[i][i]) / (2 * p[i][j])
				t := 1 / (math.Abs(h) + math.Sqrt(h*h+1))
				if h < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < 4; k++ {
					pki, pkj := p[k][i], p[k][j]
					p[k][i], p[k][j] = c*pki-s*pkj, s*pki+c*pkj
				}
				for k := 0; k < 4; k++ {
					pik, pjk := p[i][k], p[j][k]
					p[i][k], p[j][k] = c*pik-s*pjk, s*pik+c*pjk
				}
				for k := 0; k < 4; k++ {
					vki, vkj := v[k][i], v[k][j]
					v[k][i], v[k][j] = c*vki-s*vkj, s*vki+c*vkj
				}
			}
		}
	}
	return v
}

// phaseRoot4 returns a fourth root of z with |z| folded in, used for SU(4)
// normalization.
func phaseRoot4(z complex128) complex128 {
	r := math.Pow(cmplx.Abs(z), 0.25)
	return cmplx.Rect(r, cmplx.Phase(z)/4)
}

// det4 computes the determinant of a 4×4 matrix by cofactor expansion.
func det4(m *linalg.Matrix) complex128 {
	at := func(r, c int) complex128 { return m.At(r, c) }
	det3 := func(r0, r1, r2, c0, c1, c2 int) complex128 {
		return at(r0, c0)*(at(r1, c1)*at(r2, c2)-at(r1, c2)*at(r2, c1)) -
			at(r0, c1)*(at(r1, c0)*at(r2, c2)-at(r1, c2)*at(r2, c0)) +
			at(r0, c2)*(at(r1, c0)*at(r2, c1)-at(r1, c1)*at(r2, c0))
	}
	return at(0, 0)*det3(1, 2, 3, 1, 2, 3) -
		at(0, 1)*det3(1, 2, 3, 0, 2, 3) +
		at(0, 2)*det3(1, 2, 3, 0, 1, 3) -
		at(0, 3)*det3(1, 2, 3, 0, 1, 2)
}
