package experiments

import (
	"context"
	"fmt"
	"io"

	"paqoc/internal/bench"
	"paqoc/internal/grape"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/paqoc"
	"paqoc/internal/pulse"
	"paqoc/internal/pulsesim"
	"paqoc/internal/statevec"
)

// TableIIFullRow is the full-simulation counterpart of TableIIRow: real
// GRAPE pulses, each block's schedule propagated through the device
// Hamiltonian, whole-circuit state fidelity via the statevector backend,
// and the dephasing factor of the critical path on top.
type TableIIFullRow struct {
	Bench         string
	Coherent      float64 // state fidelity of realized vs ideal gates
	WithDephasing float64
	Latency       float64
	Blocks        int
}

// TableIIFull runs the paper's actual Table II protocol (QuTiP-style pulse
// simulation of the compiled circuit) for paqoc(M=0) on the small
// benchmarks. It is compute-heavy (minutes); cmd/paqoc-bench exposes it as
// `table2full`. maxUsedQubits guards the statevector width after routing.
func TableIIFull(p *Platform, benches []string, maxUsedQubits int) ([]TableIIFullRow, error) {
	if maxUsedQubits == 0 {
		maxUsedQubits = 14
	}
	var rows []TableIIFullRow
	for _, name := range benches {
		spec, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %s", name)
		}
		phys, err := p.Physical(spec)
		if err != nil {
			return nil, err
		}
		gen := grape.NewGenerator(grape.DefaultOptions())
		gen.Topo = p.Topo
		gen.System = p.Profile.SystemBuilder()
		cfg := paqoc.DefaultConfig()
		cfg.FidelityTarget = 0.999 // GRAPE-feasible target
		cfg.ProbeCaseII = false
		comp := paqoc.NewForProfile(gen, p.Profile, cfg)
		res, err := comp.CompileCtx(context.Background(), phys)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}

		reg := compactRegister(res.Blocks)
		if len(reg) > maxUsedQubits {
			return nil, fmt.Errorf("%s: %d used qubits exceed the statevector budget %d",
				name, len(reg), maxUsedQubits)
		}
		ideal, err := statevec.NewState(len(reg))
		if err != nil {
			return nil, err
		}
		realized := ideal.Clone()
		for _, b := range res.Blocks.Blocks {
			cg := b.Custom()
			wires := reg.wires(cg.Qubits)
			want, err := cg.Unitary()
			if err != nil {
				return nil, err
			}
			sys := p.Profile.System(cg.NumQubits(), blockCouplings(p, cg))
			got, err := pulsesim.EvolveCtx(context.Background(), sys, b.Gen.Schedule)
			if err != nil {
				return nil, fmt.Errorf("%s: block %s: %v", name, cg.Describe(), err)
			}
			if err := ideal.ApplyUnitary(want, wires); err != nil {
				return nil, err
			}
			if err := realized.ApplyUnitary(got, wires); err != nil {
				return nil, err
			}
		}
		coherent, err := statevec.Fidelity(ideal, realized)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIIFullRow{
			Bench:         name,
			Coherent:      coherent,
			WithDephasing: coherent * pulsesim.DecoherenceFactor(res.Latency, p.Profile.T2Dt),
			Latency:       res.Latency,
			Blocks:        res.NumBlocks,
		})
	}
	return rows, nil
}

// blockCouplings mirrors grape.Generator's coupling selection.
func blockCouplings(p *Platform, cg *pulse.CustomGate) [][2]int {
	n := cg.NumQubits()
	var pairs [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if p.Topo == nil || p.Topo.Connected(cg.Qubits[a], cg.Qubits[b]) {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	if len(pairs) == 0 && n > 1 {
		pairs = hamiltonian.LinearChain(n)
	}
	return pairs
}

// PrintTableIIFull renders the full-simulation rows.
func PrintTableIIFull(w io.Writer, rows []TableIIFullRow) {
	fmt.Fprintln(w, "Table II (full pulse simulation, paqoc M=0, real GRAPE)")
	fmt.Fprintf(w, "%-16s %10s %12s %10s %7s\n", "bench", "coherent", "w/dephasing", "latency", "blocks")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9.2f%% %11.2f%% %10.0f %7d\n",
			r.Bench, r.Coherent*100, r.WithDephasing*100, r.Latency, r.Blocks)
	}
}
