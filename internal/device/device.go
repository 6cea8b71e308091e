// Package device makes the target hardware a value instead of a set of
// package constants. A Profile bundles everything the compiler stack needs
// to know about one backend — coupling topology, Hamiltonian control
// bounds, the sample time dt, always-on error terms, and per-qubit
// coherence times — so the same pipeline can serve a 5×5 XY grid, an
// IBM-style heavy-hex lattice, or a crosstalk-dominated device by swapping
// one pointer. The registry of built-in profiles backs the `-backend` CLI
// flags and the server's `backend` request field; Fingerprint namespaces
// the warm pulse DB so cached pulses never cross devices.
package device

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"paqoc/internal/hamiltonian"
	"paqoc/internal/topology"
)

// Profile describes one hardware backend. Fields are read-only after
// registration; the accessor methods memoize derived values, so a Profile
// is safe for concurrent use.
type Profile struct {
	// Name identifies the profile in the registry, CLI flags, and the
	// server API.
	Name string
	// Description is a one-line human-readable summary.
	Description string
	// NewTopology constructs the coupling graph. It is called once; the
	// result is memoized by Topology().
	NewTopology func() *topology.Topology

	// DtNanoseconds is the duration of one device sample.
	DtNanoseconds float64
	// MuMaxGHz bounds the two-qubit interaction control field.
	MuMaxGHz float64
	// SingleQubitFactor scales the single-qubit drive bound relative to
	// the coupling bound.
	SingleQubitFactor float64

	// ZZCrosstalk is an always-on ZZ drift rate in rad/dt applied to every
	// coupled pair of a compiled block; 0 disables it.
	ZZCrosstalk float64

	// T1Dt and T2Dt are per-qubit coherence times in dt units (amplitude
	// damping and total dephasing); 0 disables the corresponding channel.
	// They are the only source of coherence times for the Table II
	// fidelity models.
	T1Dt float64
	T2Dt float64

	topoOnce sync.Once
	topo     *topology.Topology
	fpOnce   sync.Once
	fp       string
}

// Topology returns the memoized coupling graph.
func (p *Profile) Topology() *topology.Topology {
	p.topoOnce.Do(func() { p.topo = p.NewTopology() })
	return p.topo
}

// Params returns the Hamiltonian control parameters of this backend.
func (p *Profile) Params() hamiltonian.Params {
	return hamiltonian.Params{
		DtNanoseconds:     p.DtNanoseconds,
		MuMaxGHz:          p.MuMaxGHz,
		SingleQubitFactor: p.SingleQubitFactor,
	}
}

// System builds the Eq. (1) Hamiltonian for an n-qubit block with the
// given local coupling pairs under this backend's bounds, including its
// always-on ZZ crosstalk when configured. Like hamiltonian.XYTransmon it
// panics on invalid pairs — callers pass pairs derived from the topology.
func (p *Profile) System(n int, pairs [][2]int) *hamiltonian.System {
	sys := hamiltonian.XYTransmonWith(p.Params(), n, pairs)
	if p.ZZCrosstalk != 0 {
		noisy, err := sys.WithZZCrosstalk(pairs, p.ZZCrosstalk)
		if err != nil {
			panic(fmt.Sprintf("device: %s: %v", p.Name, err))
		}
		sys = noisy
	}
	return sys
}

// SystemBuilder returns System as a free function, the shape
// grape.Generator accepts without importing this package.
func (p *Profile) SystemBuilder() func(n int, pairs [][2]int) *hamiltonian.System {
	return p.System
}

// Fingerprint is a stable short hash over every physical parameter that
// affects generated pulses: qubit count, the sorted coupling edges, dt,
// control bounds, and crosstalk. Two profiles with the same physics share
// a fingerprint regardless of name; any physical difference changes it.
// The pulse DB namespaces warm entries by this value so pulses calibrated
// for one device are never replayed on another. The hash also covers the
// coherence times, which pulses do not depend on: dropping them would
// change every fingerprint and make saved snapshots refuse to load.
func (p *Profile) Fingerprint() string {
	p.fpOnce.Do(func() {
		t := p.Topology()
		h := sha256.New()
		fmt.Fprintf(h, "v1|n=%d|dt=%.17g|mu=%.17g|f1q=%.17g|zz=%.17g|t1=%.17g|t2=%.17g|edges=",
			t.NumQubits, p.DtNanoseconds, p.MuMaxGHz, p.SingleQubitFactor,
			p.ZZCrosstalk, p.T1Dt, p.T2Dt)
		for _, e := range t.Edges() { // sorted, so the digest is stable
			fmt.Fprintf(h, "%d-%d;", e[0], e[1])
		}
		p.fp = hex.EncodeToString(h.Sum(nil))[:16]
	})
	return p.fp
}
