package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"paqoc/internal/bench"
	"paqoc/internal/critical"
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
	ctx := p.Obs.Attach(context.Background())
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
		for _, method := range Methods {
			r, err := p.compileMethod(ctx, method, phys)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
			f, err := noisyFidelity(r.Blocks, p.Profile.T1Dt, p.Profile.T2Dt)
			if err != nil {
				f = math.NaN()
			}
			row.Fidelity[method] = f
		}
		rows = append(rows, row)
	}
	return rows, nil
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
