// Package critical implements the criticality-aware analysis of §V-A: the
// block circuit (a circuit whose nodes are customized-gate groups), the
// weighted critical path CP(X), the Case I/II/III classification of merge
// candidates, and the exact what-if critical path of a proposed merge.
package critical

import (
	"fmt"
	"sort"

	"paqoc/internal/circuit"
	"paqoc/internal/pulse"
)

// Block is one node of the block circuit: a group of consecutive basis
// gates scheduled as a single pulse.
//
// Gates share their Qubits and Params slices with the circuit the blocks
// were built from (NewBlock and Merge copy gate headers, not their
// slices). That is safe because no code edits a gate in place: every
// rewrite of Qubits or Params works on a Gate.Clone.
type Block struct {
	Gates   []circuit.Gate
	Qubits  []int   // sorted
	Latency float64 // current pulse latency estimate in dt
	Gen     *pulse.Generated
	APA     bool  // true when the block came from an APA-basis replacement
	Origin  []int // original gate indices contained in this block
}

// NewBlock wraps one gate as a block.
func NewBlock(g circuit.Gate, lat float64) *Block {
	return &Block{
		Gates:   []circuit.Gate{g},
		Qubits:  append([]int(nil), g.Qubits...),
		Latency: lat,
	}
}

// Custom returns the pulse-generation view of the block.
func (b *Block) Custom() *pulse.CustomGate { return pulse.NewCustomGate(b.Gates) }

// NumQubits returns N_Q(block).
func (b *Block) NumQubits() int { return len(b.Qubits) }

// Merge concatenates a followed by b into a new block (latency unset).
func Merge(a, b *Block) *Block {
	gates := make([]circuit.Gate, 0, len(a.Gates)+len(b.Gates))
	gates = append(append(gates, a.Gates...), b.Gates...)
	set := map[int]bool{}
	for _, q := range a.Qubits {
		set[q] = true
	}
	for _, q := range b.Qubits {
		set[q] = true
	}
	qs := make([]int, 0, len(set))
	for q := range set {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	origin := append(append([]int(nil), a.Origin...), b.Origin...)
	return &Block{Gates: gates, Qubits: qs, APA: a.APA && b.APA, Origin: origin}
}

// BlockCircuit is a circuit of blocks in program order (a valid linear
// extension of the block dependence DAG).
type BlockCircuit struct {
	NumQubits int
	Blocks    []*Block

	dag   *circuit.DAG // lazily rebuilt
	dirty bool
}

// FromCircuit builds the initial block circuit: one block per gate, with
// latencies from the generator-independent estimator est (may be nil,
// leaving latencies zero).
func FromCircuit(c *circuit.Circuit, est func(*pulse.CustomGate) (float64, error)) (*BlockCircuit, error) {
	bc := &BlockCircuit{NumQubits: c.NumQubits, dirty: true}
	for gi, g := range c.Gates {
		b := NewBlock(g, 0)
		b.Origin = []int{gi}
		if est != nil {
			lat, err := est(b.Custom())
			if err != nil {
				return nil, fmt.Errorf("critical: estimating %s: %v", g.String(), err)
			}
			b.Latency = lat
		}
		bc.Blocks = append(bc.Blocks, b)
	}
	return bc, nil
}

// ReleaseDAG drops the cached dependence DAG; the next call that needs it
// rebuilds it. Compilers call it on the block circuits they return, which
// callers keep long after the search is over.
func (bc *BlockCircuit) ReleaseDAG() { bc.dag, bc.dirty = nil, true }

// DAG returns the block dependence DAG, rebuilding it after mutations.
func (bc *BlockCircuit) DAG() *circuit.DAG {
	if bc.dirty || bc.dag == nil {
		sets := make([][]int, len(bc.Blocks))
		for i, b := range bc.Blocks {
			sets[i] = b.Qubits
		}
		bc.dag = circuit.BuildQubitDAG(bc.NumQubits, sets)
		bc.dirty = false
	}
	return bc.dag
}

// Weights returns the per-block latency vector.
func (bc *BlockCircuit) Weights() []float64 {
	w := make([]float64, len(bc.Blocks))
	for i, b := range bc.Blocks {
		w[i] = b.Latency
	}
	return w
}

// CriticalPath returns the current weighted critical-path latency — the
// circuit latency PAQOC minimizes.
func (bc *BlockCircuit) CriticalPath() float64 {
	if len(bc.Blocks) == 0 {
		return 0
	}
	return bc.DAG().CriticalPathLength(bc.Weights())
}

// TotalLatency returns the sum of block latencies (the sequential-stitch
// bound, used for ESP-style accounting).
func (bc *BlockCircuit) TotalLatency() float64 {
	var t float64
	for _, b := range bc.Blocks {
		t += b.Latency
	}
	return t
}

// OnCriticalPath marks blocks lying on a critical path.
func (bc *BlockCircuit) OnCriticalPath() []bool {
	return bc.DAG().OnCriticalPath(bc.Weights())
}

// Generated collects the pulse results of all blocks (nil entries for
// blocks not yet generated).
func (bc *BlockCircuit) Generated() []*pulse.Generated {
	out := make([]*pulse.Generated, len(bc.Blocks))
	for i, b := range bc.Blocks {
		out[i] = b.Gen
	}
	return out
}

// ReplaceMerge replaces blocks i and j (i before j in program order, j
// directly depending on i, with no other i⇝j path — see ValidMerge) with
// their merged block. To keep the block list a linear extension of the new
// DAG, blocks strictly between i and j are partitioned: those reachable
// from i move after the merged block, the rest move before it.
func (bc *BlockCircuit) ReplaceMerge(i, j int, m *Block, lat float64, gen *pulse.Generated) {
	if i >= j || j >= len(bc.Blocks) {
		panic("critical: ReplaceMerge wants i < j within range")
	}
	m.Latency = lat
	m.Gen = gen

	dag := bc.DAG()
	reach := make([]bool, len(bc.Blocks))
	reach[i] = true
	// Forward reachability from i restricted to indices < j (successors
	// always have larger indices in a linear extension).
	for v := i + 1; v < j; v++ {
		for _, p := range dag.Preds[v] {
			if reach[p] {
				reach[v] = true
				break
			}
		}
	}

	var before, after []*Block
	for v := i + 1; v < j; v++ {
		if reach[v] {
			after = append(after, bc.Blocks[v])
		} else {
			before = append(before, bc.Blocks[v])
		}
	}
	rebuilt := make([]*Block, 0, len(bc.Blocks)-1)
	rebuilt = append(rebuilt, bc.Blocks[:i]...)
	rebuilt = append(rebuilt, before...)
	rebuilt = append(rebuilt, m)
	rebuilt = append(rebuilt, after...)
	rebuilt = append(rebuilt, bc.Blocks[j+1:]...)
	bc.Blocks = rebuilt
	bc.dirty = true
}

// Split replaces block i with one block per gate, in gate order, and
// returns the new blocks. A block's gates are consecutive in program
// order, so the list stays a linear extension of the rebuilt DAG. The new
// blocks carry no latency or pulse, are not APA blocks, and keep their
// gate's Origin index when the block's Origin tags line up with its gates.
func (bc *BlockCircuit) Split(i int) []*Block {
	b := bc.Blocks[i]
	parts := make([]*Block, len(b.Gates))
	for k, g := range b.Gates {
		parts[k] = NewBlock(g, 0)
		if len(b.Origin) == len(b.Gates) {
			parts[k].Origin = []int{b.Origin[k]}
		}
	}
	rebuilt := make([]*Block, 0, len(bc.Blocks)+len(parts)-1)
	rebuilt = append(rebuilt, bc.Blocks[:i]...)
	rebuilt = append(rebuilt, parts...)
	rebuilt = append(rebuilt, bc.Blocks[i+1:]...)
	bc.Blocks = rebuilt
	bc.dirty = true
	return parts
}

// Clone deep-copies the block circuit (generated pulses are shared).
func (bc *BlockCircuit) Clone() *BlockCircuit {
	out := &BlockCircuit{NumQubits: bc.NumQubits, dirty: true}
	out.Blocks = make([]*Block, len(bc.Blocks))
	for i, b := range bc.Blocks {
		nb := &Block{
			Qubits:  append([]int(nil), b.Qubits...),
			Latency: b.Latency,
			Gen:     b.Gen,
			APA:     b.APA,
			Origin:  append([]int(nil), b.Origin...),
		}
		nb.Gates = make([]circuit.Gate, len(b.Gates))
		for k, g := range b.Gates {
			nb.Gates[k] = g.Clone()
		}
		out.Blocks[i] = nb
	}
	return out
}

// Flatten reconstructs a plain circuit from the blocks in program order.
func (bc *BlockCircuit) Flatten() *circuit.Circuit {
	c := circuit.New(bc.NumQubits)
	for _, b := range bc.Blocks {
		for _, g := range b.Gates {
			c.AddGate(g.Clone())
		}
	}
	return c
}

// Timeline produces the whole-circuit ASAP pulse timeline of the current
// blocks. Its makespan is exactly the weighted critical path.
func (bc *BlockCircuit) Timeline() (*pulse.Timeline, error) {
	sets := make([][]int, len(bc.Blocks))
	lats := make([]float64, len(bc.Blocks))
	for i, b := range bc.Blocks {
		sets[i] = b.Qubits
		lats[i] = b.Latency
	}
	return pulse.BuildTimeline(sets, lats)
}
