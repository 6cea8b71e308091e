package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"paqoc/internal/circuit"
	"paqoc/internal/critical"
	"paqoc/internal/device"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/pulse"
	"paqoc/internal/pulsesim"
	"paqoc/internal/statevec"
	"paqoc/internal/topology"
)

// statevecCheckQubits caps the statevector half of the equivalence check.
// The check costs 2^n per gate: at statevec.MaxQubits the analytical
// sweep's circuits would take minutes per round to verify, so wider
// circuits get the exact wire-order check alone.
const statevecCheckQubits = 12

// fidelitySlack absorbs rounding between GRAPE's own fidelity evaluation
// and the independent replay.
const fidelitySlack = 1e-6

// checkEquivalent verifies that a compiled block circuit implements the
// physical circuit. Two checks:
//
//   - wire order (every compile): the flattened blocks hold exactly the
//     physical gates, and every wire sees them in the same order. Equal
//     per-wire sequences give the same dependence DAG, hence the same
//     unitary, at any width.
//   - statevector (up to statevecCheckQubits used qubits): the check of
//     cmd/paqoc -verify, simulating both circuits from |0…0⟩.
func checkEquivalent(phys *circuit.Circuit, blocks *critical.BlockCircuit) error {
	flat := blocks.Flatten()
	if err := sameWireOrder(phys, flat); err != nil {
		return err
	}
	a, _ := phys.Compact()
	b, _ := flat.Compact()
	if a.NumQubits != b.NumQubits {
		return fmt.Errorf("width mismatch %d vs %d", a.NumQubits, b.NumQubits)
	}
	if a.NumQubits > statevecCheckQubits || a.NumQubits > statevec.MaxQubits {
		return nil
	}
	return sameState(a, b)
}

// sameState compares two circuits' output states from |0…0⟩.
func sameState(a, b *circuit.Circuit) error {
	sa, err := statevec.Run(a)
	if err != nil {
		return err
	}
	sb, err := statevec.Run(b)
	if err != nil {
		return err
	}
	f, err := statevec.Fidelity(sa, sb)
	if err != nil {
		return err
	}
	if f < 1-1e-7 {
		return fmt.Errorf("compiled circuit deviates, state fidelity %.9f", f)
	}
	return nil
}

// sameWireOrder compares the per-wire gate sequences of two circuits.
func sameWireOrder(want, got *circuit.Circuit) error {
	if len(want.Gates) != len(got.Gates) {
		return fmt.Errorf("%d gates compiled, %d in the physical circuit", len(got.Gates), len(want.Gates))
	}
	wires := func(c *circuit.Circuit) map[int][]string {
		out := map[int][]string{}
		for _, g := range c.Gates {
			k := gateKey(g)
			for _, q := range g.Qubits {
				out[q] = append(out[q], k)
			}
		}
		return out
	}
	ww, gw := wires(want), wires(got)
	if len(ww) != len(gw) {
		return fmt.Errorf("compiled circuit touches %d wires, physical %d", len(gw), len(ww))
	}
	for q, seq := range ww {
		other := gw[q]
		if len(other) != len(seq) {
			return fmt.Errorf("wire %d: %d gates compiled, %d physical", q, len(other), len(seq))
		}
		for i := range seq {
			if seq[i] != other[i] {
				return fmt.Errorf("wire %d position %d: %s compiled where %s was", q, i, other[i], seq[i])
			}
		}
	}
	return nil
}

// gateKey renders a gate with full-precision parameters.
func gateKey(g circuit.Gate) string {
	var b strings.Builder
	b.WriteString(g.Name)
	for _, p := range g.Params {
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(p, 'g', -1, 64))
	}
	for _, q := range g.Qubits {
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(q))
	}
	return b.String()
}

// checkSchedule replays a GRAPE schedule through pulsesim on the block's
// own Hamiltonian (the profile's system over the block's coupled pairs,
// as grape.Generator builds it) and checks the realized gate against the
// target unitary and the fidelity target. It returns the replayed
// fidelity.
func checkSchedule(ctx context.Context, prof *device.Profile, qubits []int, target *linalg.Matrix, sched *pulse.Schedule, fidelityTarget float64) (float64, error) {
	if sched == nil {
		return 0, fmt.Errorf("block on qubits %v has no schedule", qubits)
	}
	sys := prof.SystemBuilder()(len(qubits), couplings(prof.Topology(), qubits))
	byName := make(map[string][]float64, len(sched.Channels))
	for k, name := range sched.Channels {
		byName[name] = sched.Amps[k]
	}
	ordered := &pulse.Schedule{SliceDt: sched.SliceDt}
	for _, c := range sys.Controls {
		amps, ok := byName[c.Name]
		if !ok {
			return 0, fmt.Errorf("schedule lacks channel %s", c.Name)
		}
		ordered.Channels = append(ordered.Channels, c.Name)
		ordered.Amps = append(ordered.Amps, amps)
	}
	u, err := pulsesim.EvolveCtx(ctx, sys, ordered)
	if err != nil {
		return 0, err
	}
	f := pulsesim.GateFidelity(target, u)
	if f < fidelityTarget-fidelitySlack {
		return f, fmt.Errorf("replayed fidelity %.6f below target %.6f on qubits %v", f, fidelityTarget, qubits)
	}
	return f, nil
}

// couplings maps the block's physical adjacency onto local wires, falling
// back to a chain for disconnected groups (grape.Generator's rule).
func couplings(topo *topology.Topology, qubits []int) [][2]int {
	n := len(qubits)
	var pairs [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if topo.Connected(qubits[a], qubits[b]) {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	if len(pairs) == 0 && n > 1 {
		pairs = hamiltonian.LinearChain(n)
	}
	return pairs
}

// describedGates parses a customized gate's Describe() rendering, e.g.
// "[h 3; cx 3 4]", into its gates on a register of width qubits (the
// server's per-gate result carries the gate only in this form).
func describedGates(desc string, width int) ([]circuit.Gate, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(desc, "["), "]")
	c, err := circuit.Parse(fmt.Sprintf("qubits %d\n%s\n", width, strings.ReplaceAll(body, "; ", "\n")))
	if err != nil {
		return nil, err
	}
	return c.Gates, nil
}
