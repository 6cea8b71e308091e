package quantum

import (
	"fmt"

	"paqoc/internal/linalg"
)

// Embed lifts a k-qubit unitary u onto an n-qubit Hilbert space, acting on
// the given wires (wires[i] is the circuit qubit playing the role of u's
// i-th qubit). Qubit 0 is the most significant bit of the basis index.
func Embed(u *linalg.Matrix, wires []int, n int) *linalg.Matrix {
	checkEmbed(u, wires, n)
	dim := 1 << n
	out := linalg.New(dim, dim)
	embed(out, u, wires, n)
	return out
}

// EmbedInto is Embed into a caller-owned 2ⁿ×2ⁿ destination: it clears dst
// and then makes Embed's writes, so dst ends bit-identical to Embed's
// result. dst must not alias u.
func EmbedInto(dst, u *linalg.Matrix, wires []int, n int) {
	checkEmbed(u, wires, n)
	if dim := 1 << n; dst.Rows != dim || dst.Cols != dim {
		panic(fmt.Sprintf("quantum: EmbedInto destination %dx%d, want %dx%d", dst.Rows, dst.Cols, dim, dim))
	}
	clear(dst.Data)
	embed(dst, u, wires, n)
}

// checkEmbed panics unless u spans len(wires) qubits and the wires are
// distinct and inside [0, n).
func checkEmbed(u *linalg.Matrix, wires []int, n int) {
	k := len(wires)
	if u.Rows != 1<<k || u.Cols != 1<<k {
		panic(fmt.Sprintf("quantum: Embed unitary dim %d does not match %d wires", u.Rows, k))
	}
	for i, w := range wires {
		if w < 0 || w >= n {
			panic(fmt.Sprintf("quantum: wire %d out of range [0,%d)", w, n))
		}
		for _, v := range wires[:i] {
			if v == w {
				panic(fmt.Sprintf("quantum: duplicate wire %d", w))
			}
		}
	}
}

// embed writes u's nonzero entries into out, which holds zeros elsewhere.
func embed(out, u *linalg.Matrix, wires []int, n int) {
	k := len(wires)
	dim := 1 << n
	// bitOf extracts qubit q's bit from basis index idx (qubit 0 = MSB).
	bitOf := func(idx, q int) int { return (idx >> (n - 1 - q)) & 1 }

	for col := 0; col < dim; col++ {
		// Sub-index of the wires within this basis column.
		sub := 0
		for i, w := range wires {
			sub |= bitOf(col, w) << (k - 1 - i)
		}
		for subRow := 0; subRow < (1 << k); subRow++ {
			amp := u.At(subRow, sub)
			if amp == 0 {
				continue
			}
			// Row index: col with the wire bits replaced by subRow's bits.
			row := col
			for i, w := range wires {
				bit := (subRow >> (k - 1 - i)) & 1
				mask := 1 << (n - 1 - w)
				if bit == 1 {
					row |= mask
				} else {
					row &^= mask
				}
			}
			out.Set(row, col, amp)
		}
	}
}

// PermuteQubits returns the unitary obtained by relabelling u's qubits:
// qubit i of the result corresponds to qubit perm[i] of u. perm must be a
// permutation of 0..k-1 where u acts on k qubits.
func PermuteQubits(u *linalg.Matrix, perm []int) *linalg.Matrix {
	k := qubitCount(u)
	if len(perm) != k {
		panic("quantum: PermuteQubits wrong perm length")
	}
	wires := make([]int, k)
	copy(wires, perm)
	return Embed(u, wires, k)
}

// SequenceUnitary composes a sequence of (gate unitary, wires) pairs acting
// on n qubits, in program order (earliest first), returning the overall
// unitary. The composition is U_total = U_last · … · U_first, one
// linalg.MulInto of each embedded gate with the product so far, starting
// from the identity. Three 2ⁿ×2ⁿ matrices serve the whole sequence: one
// embedding buffer and two products in turn.
func SequenceUnitary(n int, ops []EmbeddedOp) *linalg.Matrix {
	dim := 1 << n
	total := linalg.Identity(dim)
	if len(ops) == 0 {
		return total
	}
	next, g := linalg.New(dim, dim), linalg.New(dim, dim)
	for _, op := range ops {
		EmbedInto(g, op.U, op.Wires, n)
		linalg.MulInto(next, g, total)
		total, next = next, total
	}
	return total
}

// EmbeddedOp is one gate application inside SequenceUnitary.
type EmbeddedOp struct {
	U     *linalg.Matrix
	Wires []int
}

func qubitCount(u *linalg.Matrix) int {
	k := 0
	for d := u.Rows; d > 1; d >>= 1 {
		if d&1 == 1 {
			panic("quantum: unitary dimension not a power of two")
		}
		k++
	}
	return k
}

// QubitCount returns the number of qubits a square power-of-two-dimension
// unitary acts on.
func QubitCount(u *linalg.Matrix) int { return qubitCount(u) }
