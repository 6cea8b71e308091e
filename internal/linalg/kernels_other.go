//go:build !amd64

package linalg

// Non-amd64 builds fall back to the portable scalar kernels.

const hasAVX2 = false

func mulIntoFast(dst, a, b *Matrix) bool { return false }

func stepTerm(sum, t []complex128, r float64) bool { return taylorStep(sum, t, r) }
