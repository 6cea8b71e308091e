//go:build !amd64

package linalg

// Non-amd64 builds fall back to the portable scalar kernels.

// hasAVX2FMA is a variable only so that tests build on every
// architecture; no kernel reads it here.
var hasAVX2FMA = false

func mulIntoFast(dst, a, b *Matrix) bool { return false }

func combineParts(h, t, a, a2, a3 []complex128, ct, c1, c2, c3 float64) {
	combineGeneric(h, t, a, a2, a3, ct, c1, c2, c3)
}

func sqrtColSums(sums *[16]float64, m *Matrix) bool { return false }
