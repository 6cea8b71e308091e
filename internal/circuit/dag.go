package circuit

import "slices"

// DAG is the gate dependence graph of a circuit: node i is Gates[i], and
// there is an edge u→v when v is the next gate after u on some shared
// qubit. Only immediate per-wire successors are stored, which is exactly
// the dependence structure the merge rules of §V-A read. Every edge points
// forward (u < v), so index order is already topological.
type DAG struct {
	NumGates int
	Succs    [][]int // Succs[i]: gates immediately depending on gate i
	Preds    [][]int // Preds[i]: gates gate i immediately depends on
}

// BuildDAG constructs the dependence DAG of a circuit.
func BuildDAG(c *Circuit) *DAG {
	sets := make([][]int, len(c.Gates))
	for i, g := range c.Gates {
		sets[i] = g.Qubits
	}
	return BuildQubitDAG(c.NumQubits, sets)
}

// BuildQubitDAG constructs a dependence DAG over any sequence of
// qubit-using operations (gates, or merged blocks in the PAQOC engine):
// operation i depends on the most recent earlier operation touching each of
// its qubits.
func BuildQubitDAG(numQubits int, qubitSets [][]int) *DAG {
	n := len(qubitSets)
	d := &DAG{
		NumGates: n,
		Succs:    make([][]int, n),
		Preds:    make([][]int, n),
	}
	last := make([]int, numQubits)
	for i := range last {
		last[i] = -1
	}
	for i, qs := range qubitSets {
		for _, q := range qs {
			if p := last[q]; p >= 0 && !slices.Contains(d.Preds[i], p) {
				d.Succs[p] = append(d.Succs[p], i)
				d.Preds[i] = append(d.Preds[i], p)
			}
			last[q] = i
		}
	}
	return d
}
