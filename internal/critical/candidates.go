package critical

import "slices"

// MergeCase classifies a candidate per §V-A1.
type MergeCase int

const (
	// CaseI: both blocks lie on the critical path.
	CaseI MergeCase = iota
	// CaseII: exactly one of the two blocks is critical.
	CaseII
	// CaseIII: neither block is critical — pruned, merging cannot shorten
	// the critical path and may create false dependences (Fig. 9-d).
	CaseIII
)

func (c MergeCase) String() string {
	switch c {
	case CaseI:
		return "I"
	case CaseII:
		return "II"
	default:
		return "III"
	}
}

// Candidate is a proposed two-block merge (the hierarchical search of
// §V-A1 considers pairs; multi-gate groups emerge across iterations).
// The merged block itself is built on demand with Merge: a search ranks
// many candidates from cache and applies few.
type Candidate struct {
	I, J int // block indices, J directly depends on I
	Case MergeCase
}

// ValidMerge reports whether blocks i and j can be fused: j must directly
// depend on i, the only i⇝j path must be the direct edge (otherwise
// contraction creates a cycle), and the union width must not exceed maxN.
func (bc *BlockCircuit) ValidMerge(i, j, maxN int) bool {
	if i < 0 || j <= i || j >= len(bc.Blocks) {
		return false
	}
	dag := bc.DAG()
	direct := false
	for _, s := range dag.Succs[i] {
		if s == j {
			direct = true
			break
		}
	}
	if !direct {
		return false
	}
	if unionWidth(bc.Blocks[i].Qubits, bc.Blocks[j].Qubits) > maxN {
		return false
	}
	return !bc.hasIndirectPath(i, j)
}

// hasIndirectPath reports an i⇝j path of length ≥ 2: a depth-first
// search from i's other successors below j. It marks blocks as it pushes
// them, with a generation stamp in a buffer the block circuit reuses, so
// the stack holds each block at most once and a search allocates nothing
// once warm; the buffer is cleared only when the stamp wraps.
func (bc *BlockCircuit) hasIndirectPath(i, j int) bool {
	dag := bc.DAG()
	if len(bc.seen) < len(bc.Blocks) {
		bc.seen = make([]uint32, len(bc.Blocks))
		bc.stamp = 0
	}
	bc.stamp++
	if bc.stamp == 0 {
		clear(bc.seen)
		bc.stamp = 1
	}
	seen, stamp := bc.seen, bc.stamp
	stack := scratch(bc.stack, len(bc.Blocks))
	for _, s := range dag.Succs[i] {
		if s != j && s < j { // successors beyond j can't reach back in a DAG ordered list
			seen[s] = stamp
			stack = append(stack, s)
		}
	}
	found := false
search:
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range dag.Succs[v] {
			if s == j {
				found = true
				break search
			}
			if s < j && seen[s] != stamp {
				seen[s] = stamp
				stack = append(stack, s)
			}
		}
	}
	bc.stack = stack
	return found
}

// Candidates enumerates all valid two-block merges, classifying each by
// criticality; Case III candidates are dropped when pruneCaseIII is set
// (the paper's default).
func (bc *BlockCircuit) Candidates(maxN int, pruneCaseIII bool) []Candidate {
	dag := bc.DAG()
	on := bc.OnCriticalPath()
	var out []Candidate
	for i := range bc.Blocks {
		for _, j := range dag.Succs[i] {
			if !bc.ValidMerge(i, j, maxN) {
				continue
			}
			var mc MergeCase
			switch {
			case on[i] && on[j]:
				mc = CaseI
			case on[i] || on[j]:
				mc = CaseII
			default:
				mc = CaseIII
			}
			if pruneCaseIII && mc == CaseIII {
				continue
			}
			out = append(out, Candidate{I: i, J: j, Case: mc})
		}
	}
	return out
}

// PreprocessMerge returns the first Observation-1 pre-processing merge of
// §V-A1 (Fig. 8-c), scanning blocks in order from block start: an
// adjacent pair where one block's qubit set contains the other's, so
// fusing cannot create false dependences and is "typically beneficial".
// The structural side conditions guarantee validity without a
// reachability check.
//
// After a pre-merge, a scan from PreprocessResume returns the pair a scan
// from block 0 returns.
func (bc *BlockCircuit) PreprocessMerge(maxN, start int) (Candidate, bool) {
	dag := bc.DAG()
	for i := start; i < len(bc.Blocks); i++ {
		for _, j := range dag.Succs[i] {
			a, b := bc.Blocks[i].Qubits, bc.Blocks[j].Qubits
			if unionWidth(a, b) > maxN {
				continue
			}
			jSub := subset(b, a) && len(dag.Preds[j]) == 1
			iSub := subset(a, b) && len(dag.Succs[i]) == 1
			if jSub || iSub {
				return Candidate{I: i, J: j}, true
			}
		}
	}
	return Candidate{}, false
}

// PreprocessResume returns the block at which the pre-pass's next scan
// resumes after pre-merging (i, j): the smallest of i and the indices in
// Preds[i] and Preds[j]. Call it before ReplaceMerge. No pair whose first
// block lies below it can match after the merge unless it matched before
// (DESIGN.md, "Critical paths by sweep").
func (bc *BlockCircuit) PreprocessResume(i, j int) int {
	dag := bc.DAG()
	start := i
	for _, p := range dag.Preds[i] {
		start = min(start, p)
	}
	for _, p := range dag.Preds[j] {
		start = min(start, p)
	}
	return start
}

// CPIfMerged returns the exact whole-circuit critical path if blocks i and
// j were merged into one block of latency lab: a forward sweep over the
// block order ReplaceMerge would install (blocks before i, the window
// blocks i does not reach, a stand-in merged block on both qubit sets,
// the window blocks i reaches, then the tail), so the false dependences
// the merge introduces (§V-A's Case analysis, Fig. 9) are accounted for
// exactly. It builds no list and, once warm, allocates nothing.
func (bc *BlockCircuit) CPIfMerged(i, j int, lab float64) float64 {
	reach := bc.windowReach(i, j)
	if len(bc.ready) != bc.NumQubits {
		bc.ready = make([]float64, bc.NumQubits)
	}
	ready := bc.ready
	clear(ready)
	cp := sweep(ready, bc.Blocks[:i], nil, false)
	window := bc.Blocks[i+1 : j]
	for k, b := range window {
		if !reach[k] {
			cp = longer(cp, finish(ready, b.Qubits, nil, b.Latency))
		}
	}
	cp = longer(cp, finish(ready, bc.Blocks[i].Qubits, bc.Blocks[j].Qubits, lab))
	for k, b := range window {
		if reach[k] {
			cp = longer(cp, finish(ready, b.Qubits, nil, b.Latency))
		}
	}
	return longer(cp, sweep(ready, bc.Blocks[j+1:], nil, false))
}

// unionWidth returns len(union(a, b)) without building the union.
func unionWidth(a, b []int) int {
	n := len(a)
	for _, q := range b {
		if !slices.Contains(a, q) {
			n++
		}
	}
	return n
}

// subset reports whether every qubit of inner is in outer.
func subset(inner, outer []int) bool {
	for _, q := range inner {
		if !slices.Contains(outer, q) {
			return false
		}
	}
	return true
}
