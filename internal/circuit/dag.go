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

	edges []int // backing array of every Preds and Succs list
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
	d := &DAG{}
	FillQubitDAG(d, make([]int, numQubits), qubitSets)
	return d
}

// FillQubitDAG makes d the dependence DAG of qubitSets, as BuildQubitDAG
// builds it, reusing d's arrays when they are large enough. last is
// per-qubit scratch with one entry per qubit; its contents are
// overwritten.
//
// Every list lives in one flat array of 2 × the total qubit count: node
// i's Preds and then its Succs, each with capacity len(qubitSets[i]),
// which is the most either can hold (each qubit has one previous and one
// next user). A caller that appends past that capacity gets a copy, so it
// cannot overwrite a neighbour's list. The lists stay valid until the
// next fill of d.
func FillQubitDAG(d *DAG, last []int, qubitSets [][]int) {
	n := len(qubitSets)
	total := 0
	for _, qs := range qubitSets {
		total += len(qs)
	}
	if cap(d.edges) < 2*total {
		d.edges = make([]int, 2*total)
	}
	if cap(d.Preds) < n {
		d.Preds = make([][]int, n)
		d.Succs = make([][]int, n)
	}
	d.NumGates, d.Preds, d.Succs = n, d.Preds[:n], d.Succs[:n]
	off := 0
	for i, qs := range qubitSets {
		k := len(qs)
		d.Preds[i] = d.edges[off : off : off+k]
		d.Succs[i] = d.edges[off+k : off+k : off+2*k]
		off += 2 * k
	}
	for q := range last {
		last[q] = -1
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
}
