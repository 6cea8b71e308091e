//go:build !amd64

package linalg

// hostKernels lists the product kernels this host can run at square
// dimension n: none off amd64, where MulInto always runs the Go loop.
func hostKernels(n int) []productKernel { return nil }
