package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"paqoc/internal/accqoc"
	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/critical"
	"paqoc/internal/latency"
	"paqoc/internal/mining"
	"paqoc/internal/paqoc"
	"paqoc/internal/statevec"
)

// TableIINoisyRow holds per-method density-matrix fidelities (T1/T2 Kraus
// channels per pulse duration) for one benchmark. Methods whose compacted
// register exceeds the density-matrix budget report NaN.
type TableIINoisyRow struct {
	Bench    string
	Fidelity map[string]float64
}

// TableIINoisy is the noise-channel upgrade of TableII: instead of the
// scalar exp(-latency/T2) factor it plays every customized gate through
// the density-matrix simulator with amplitude damping and dephasing scaled
// by the gate's pulse duration, under the coherence times of the
// platform's device profile. Fidelity is ⟨ψ_ideal|ρ|ψ_ideal⟩.
func TableIINoisy(p *Platform) ([]TableIINoisyRow, error) {
	var rows []TableIINoisyRow
	for _, name := range TableIIBenches {
		spec, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %s", name)
		}
		phys, err := p.Physical(spec)
		if err != nil {
			return nil, err
		}
		row := TableIINoisyRow{Bench: name, Fidelity: map[string]float64{}}
		blocks, err := p.methodBlocks(phys)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		for method, bc := range blocks {
			f, err := noisyFidelity(bc, p.Profile.T1Dt, p.Profile.T2Dt)
			if err != nil {
				row.Fidelity[method] = math.NaN()
				continue
			}
			row.Fidelity[method] = f
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// methodBlocks compiles the physical circuit under all five methods and
// returns the resulting block circuits.
func (p *Platform) methodBlocks(phys *circuit.Circuit) (map[string]*critical.BlockCircuit, error) {
	out := map[string]*critical.BlockCircuit{}
	for _, depth := range []int{3, 5} {
		gen := latency.NewModel()
		gen.Topo = p.Topo
		gen.Params = p.Profile.Params()
		gen.DB.DetectPermutations = false
		res, err := accqoc.CompileCtx(context.Background(), phys, gen, accqoc.Options{MaxQubits: 3, Depth: depth, FidelityTarget: p.Fidelity})
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("accqoc_n3d%d", depth)] = res.Blocks
	}
	for _, m := range []int{0, mTunedSentinel, paqoc.MInf} {
		cfg := paqoc.DefaultConfig()
		cfg.FidelityTarget = p.Fidelity
		cfg.ProbeCaseII = false
		name := ""
		switch m {
		case 0:
			cfg.M = 0
			name = "paqoc_m0"
		case mTunedSentinel:
			patterns, err := mining.MineCtx(context.Background(), phys, mining.DefaultOptions())
			if err != nil {
				return nil, err
			}
			cfg.M = mining.TunedM(phys, patterns, cfg.MinSupport)
			name = "paqoc_mtuned"
		default:
			cfg.M = paqoc.MInf
			name = "paqoc_minf"
		}
		comp := paqoc.NewForProfile(nil, p.Profile, cfg)
		res, err := comp.CompileCtx(context.Background(), phys)
		if err != nil {
			return nil, err
		}
		out[name] = res.Blocks
	}
	return out, nil
}

// noisyFidelity plays a block circuit through the density-matrix channel
// model on the compacted register.
func noisyFidelity(bc *critical.BlockCircuit, t1, t2 float64) (float64, error) {
	reg := compactRegister(bc)
	if len(reg) == 0 {
		return 1, nil
	}
	rho, err := statevec.NewDensity(len(reg))
	if err != nil {
		return 0, err
	}
	ideal, err := statevec.NewState(len(reg))
	if err != nil {
		return 0, err
	}
	for _, b := range bc.Blocks {
		cg := b.Custom()
		u, err := cg.Unitary()
		if err != nil {
			return 0, err
		}
		wires := reg.wires(cg.Qubits)
		if err := ideal.ApplyUnitary(u, wires); err != nil {
			return 0, err
		}
		if err := rho.ApplyUnitary(u, wires); err != nil {
			return 0, err
		}
		rho.Decay(b.Latency, t1, t2)
	}
	return rho.Fidelity(ideal)
}

// register numbers the physical qubits a block circuit touches densely, in
// ascending order, so a simulator holds only the working set.
type register map[int]int

// compactRegister builds the register of bc's working set.
func compactRegister(bc *critical.BlockCircuit) register {
	used := map[int]bool{}
	for _, b := range bc.Blocks {
		for _, q := range b.Qubits {
			used[q] = true
		}
	}
	order := make([]int, 0, len(used))
	for q := range used {
		order = append(order, q)
	}
	sort.Ints(order)
	reg := register{}
	for i, q := range order {
		reg[q] = i
	}
	return reg
}

// wires maps physical qubits onto the register.
func (r register) wires(qubits []int) []int {
	out := make([]int, len(qubits))
	for i, q := range qubits {
		out[i] = r[q]
	}
	return out
}

// PrintTableIINoisy renders the noise-channel fidelity table.
func PrintTableIINoisy(w io.Writer, rows []TableIINoisyRow) {
	fmt.Fprintln(w, "Table II (density-matrix T1/T2 channels, larger is better)")
	fmt.Fprintf(w, "%-16s", "bench")
	for _, m := range Methods {
		fmt.Fprintf(w, " %14s", m)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s", r.Bench)
		for _, m := range Methods {
			v := r.Fidelity[m]
			if math.IsNaN(v) {
				fmt.Fprintf(w, " %14s", "n/a")
			} else {
				fmt.Fprintf(w, " %13.2f%%", v*100)
			}
		}
		fmt.Fprintln(w)
	}
}
