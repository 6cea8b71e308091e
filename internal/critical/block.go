// Package critical implements the criticality-aware analysis of §V-A: the
// block circuit (a circuit whose nodes are customized-gate groups), the
// weighted critical path CP(X), the Case I/II/III classification of merge
// candidates, and the exact what-if critical path of a proposed merge.
package critical

import (
	"fmt"
	"slices"

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
	Qubits  []int   // a gate's operand order (cx 3,1: [3 1]); ascending once merged
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
	origin := append(append([]int(nil), a.Origin...), b.Origin...)
	return &Block{Gates: gates, Qubits: union(a.Qubits, b.Qubits), APA: a.APA && b.APA, Origin: origin}
}

// union returns the distinct qubits of a and b in ascending order. Neither
// input need be sorted (see Block.Qubits); each holds distinct qubits.
func union(a, b []int) []int {
	out := append(make([]int, 0, len(a)+len(b)), a...)
	for _, q := range b {
		if !slices.Contains(a, q) {
			out = append(out, q)
		}
	}
	slices.Sort(out)
	return out
}

// BlockCircuit is a circuit of blocks in program order (a valid linear
// extension of the block dependence DAG: every edge points forward).
//
// The merge loop's methods (DAG, ValidMerge, Candidates, PreprocessMerge,
// CPIfMerged, ReplaceMerge, Split) reuse scratch the block circuit owns,
// so a BlockCircuit is not safe for concurrent use while it is searched.
// Code that assigns Blocks directly gets a DAG built on first use.
type BlockCircuit struct {
	NumQubits int
	Blocks    []*Block

	dag   circuit.DAG // refilled in place after each mutation
	fresh bool        // dag describes Blocks
	last  []int       // the DAG fill's per-qubit scratch
	sets  [][]int     // the blocks' qubit sets, the DAG fill's input
	reach []bool      // windowReach's marks
	moved []*Block    // ReplaceMerge's reached window blocks
	ready []float64   // CPIfMerged's per-qubit ready times
	seen  []uint32    // hasIndirectPath's visited stamps
	stamp uint32      // the current stamp in seen
	stack []int       // hasIndirectPath's depth-first stack
}

// FromCircuit builds the initial block circuit: one block per gate, with
// latencies from the generator-independent estimator est (may be nil,
// leaving latencies zero).
func FromCircuit(c *circuit.Circuit, est func(*pulse.CustomGate) (float64, error)) (*BlockCircuit, error) {
	bc := &BlockCircuit{NumQubits: c.NumQubits}
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

// ReleaseDAG drops the dependence DAG and every scratch buffer of the
// merge loop; the next call that needs them rebuilds them. Compilers call
// it on the block circuits they return, which callers keep long after the
// search is over, so a result pins no search storage and no merged-away
// block.
func (bc *BlockCircuit) ReleaseDAG() {
	*bc = BlockCircuit{NumQubits: bc.NumQubits, Blocks: bc.Blocks}
}

// DAG returns the block dependence DAG, refilling it in place after a
// mutation. Its lists are valid until the next mutation of the block
// circuit (ReplaceMerge or Split), which overwrites them. Once warm a
// refill allocates nothing: merges never grow the total qubit count the
// storage is sized by; only Split can.
func (bc *BlockCircuit) DAG() *circuit.DAG {
	if !bc.fresh {
		bc.sets = bc.sets[:0]
		for _, b := range bc.Blocks {
			bc.sets = append(bc.sets, b.Qubits)
		}
		if len(bc.last) != bc.NumQubits {
			bc.last = make([]int, bc.NumQubits)
		}
		circuit.FillQubitDAG(&bc.dag, bc.last, bc.sets)
		bc.fresh = true
	}
	return &bc.dag
}

// CriticalPath returns the current weighted critical-path latency — the
// circuit latency PAQOC minimizes.
func (bc *BlockCircuit) CriticalPath() float64 {
	return sweep(make([]float64, bc.NumQubits), bc.Blocks, nil, false)
}

// LongestPaths returns, for each block, the weighted longest path ending
// at it (to) and the one starting at it (from, CP(X)+L(X) in the paper's
// notation). Both include the block's own latency. The caller owns both
// arrays.
func (bc *BlockCircuit) LongestPaths() (to, from []float64) {
	to = make([]float64, len(bc.Blocks))
	from = make([]float64, len(bc.Blocks))
	ready := make([]float64, bc.NumQubits)
	sweep(ready, bc.Blocks, to, false)
	clear(ready)
	sweep(ready, bc.Blocks, from, true)
	return to, from
}

// sweep computes the longest paths of a block list in one pass over
// per-qubit ready times, which start zeroed. Forward, dist[i] is block
// i's finish time in the as-soon-as-possible schedule, the longest path
// ending at it, and the result is the critical path; reversed, dist[i] is
// the longest path from block i to any sink. dist may be nil. Every
// dependence edge points forward, and ready[q] holds the path of exactly
// the neighbour on q that a walk of the block DAG relaxes, so both match
// that walk bit for bit (DESIGN.md, "Critical paths by sweep").
func sweep(ready []float64, blocks []*Block, dist []float64, reverse bool) (longest float64) {
	for k := range blocks {
		i := k
		if reverse {
			i = len(blocks) - 1 - k
		}
		end := finish(ready, blocks[i].Qubits, nil, blocks[i].Latency)
		if dist != nil {
			dist[i] = end
		}
		longest = longer(longest, end)
	}
	return longest
}

// longer returns the longer of a running critical path and a finish time,
// keeping the running value on ties (and on NaN, as the DAG walk did).
func longer(longest, end float64) float64 {
	if end > longest {
		return end
	}
	return longest
}

// finish schedules one block on the qubits of a and b (b may be nil or
// overlap a) at its earliest start, records its finish as their ready
// time and returns it.
func finish(ready []float64, a, b []int, lat float64) float64 {
	start := 0.0
	for _, q := range a {
		if ready[q] > start {
			start = ready[q]
		}
	}
	for _, q := range b {
		if ready[q] > start {
			start = ready[q]
		}
	}
	end := start + lat
	for _, q := range a {
		ready[q] = end
	}
	for _, q := range b {
		ready[q] = end
	}
	return end
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

// OnCriticalPath marks blocks lying on at least one weighted critical
// path.
func (bc *BlockCircuit) OnCriticalPath() []bool {
	to, from := bc.LongestPaths()
	var total float64
	for _, v := range to {
		total = longer(total, v)
	}
	on := make([]bool, len(bc.Blocks))
	const eps = 1e-9
	for i, b := range bc.Blocks {
		// to[i] and from[i] both include the block's own latency.
		on[i] = to[i]+from[i]-b.Latency >= total-eps
	}
	return on
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
// their merged block, in place. To keep the list a linear extension of
// the new DAG, the blocks strictly between i and j are partitioned
// (windowReach): those i reaches move after m, the rest move before it,
// each group in its old order. The tail moves down one slot. CPIfMerged
// sweeps exactly this order, so the two cannot disagree.
func (bc *BlockCircuit) ReplaceMerge(i, j int, m *Block, lat float64, gen *pulse.Generated) {
	m.Latency = lat
	m.Gen = gen
	reach := bc.windowReach(i, j)
	bc.moved = scratch(bc.moved, len(bc.Blocks))
	w := i
	for v := i + 1; v < j; v++ {
		if reach[v-i-1] {
			bc.moved = append(bc.moved, bc.Blocks[v])
		} else {
			bc.Blocks[w] = bc.Blocks[v]
			w++
		}
	}
	bc.Blocks[w] = m
	copy(bc.Blocks[w+1:], bc.moved)
	n := len(bc.Blocks)
	copy(bc.Blocks[j:], bc.Blocks[j+1:])
	bc.Blocks[n-1] = nil
	bc.Blocks = bc.Blocks[:n-1]
	bc.fresh = false
}

// windowReach marks which blocks of the merge window (i, j) block i
// reaches: reach[v-i-1] for i < v < j. Successors always have larger
// indices in a linear extension, so one forward pass over the window's
// predecessor lists suffices. The marks live in a buffer the block
// circuit reuses, valid until the next call.
func (bc *BlockCircuit) windowReach(i, j int) []bool {
	if i >= j || j >= len(bc.Blocks) {
		panic("critical: merge wants i < j within range")
	}
	dag := bc.DAG()
	reach := scratch(bc.reach, len(bc.Blocks))
	for v := i + 1; v < j; v++ {
		r := false
		for _, p := range dag.Preds[v] {
			if p == i || p > i && reach[p-i-1] {
				r = true
				break
			}
		}
		reach = append(reach, r)
	}
	bc.reach = reach
	return reach
}

// scratch returns buf emptied, with room for n elements: a search sizes
// each buffer by the block count once, and merges only shrink it.
func scratch[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
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
	bc.fresh = false
	return parts
}

// Clone deep-copies the block circuit (generated pulses are shared).
func (bc *BlockCircuit) Clone() *BlockCircuit {
	out := &BlockCircuit{NumQubits: bc.NumQubits}
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
