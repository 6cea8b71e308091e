package critical

import "paqoc/internal/circuit"

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
	I, J  int // block indices, J directly depends on I
	Case  MergeCase
	Score float64 // critical-path reduction; filled by the ranking step
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
	if unionWidth(bc.Blocks[i], bc.Blocks[j]) > maxN {
		return false
	}
	return !bc.hasIndirectPath(i, j)
}

// hasIndirectPath reports an i⇝j path of length ≥ 2.
func (bc *BlockCircuit) hasIndirectPath(i, j int) bool {
	dag := bc.DAG()
	seen := make([]bool, len(bc.Blocks))
	var stack []int
	for _, s := range dag.Succs[i] {
		if s != j && s < j { // successors beyond j can't reach back in a DAG ordered list
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		for _, s := range dag.Succs[v] {
			if s == j {
				return true
			}
			if s < j && !seen[s] {
				stack = append(stack, s)
			}
		}
	}
	return false
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

// PreprocessCandidates returns the Observation-1 pre-processing merges of
// §V-A1 (Fig. 8-c): adjacent pairs where one block's qubit set contains the
// other's, so fusing cannot create false dependences and is "typically
// beneficial". The structural side conditions guarantee validity without a
// reachability check.
func (bc *BlockCircuit) PreprocessCandidates(maxN int) []Candidate {
	dag := bc.DAG()
	var out []Candidate
	for i := range bc.Blocks {
		for _, j := range dag.Succs[i] {
			a, b := bc.Blocks[i], bc.Blocks[j]
			if unionWidth(a, b) > maxN {
				continue
			}
			jSub := subset(b.Qubits, a.Qubits) && len(dag.Preds[j]) == 1
			iSub := subset(a.Qubits, b.Qubits) && len(dag.Succs[i]) == 1
			if jSub || iSub {
				out = append(out, Candidate{I: i, J: j, Case: CaseI})
			}
		}
	}
	return out
}

// CPIfMerged returns the exact whole-circuit critical path if blocks i and
// j were merged into one block of latency lab. It reconstructs the
// dependence structure from qubit sets, so the false dependences the merge
// introduces (§V-A's Case analysis, Fig. 9) are accounted for exactly.
func (bc *BlockCircuit) CPIfMerged(i, j int, lab float64) float64 {
	dag := bc.DAG()
	n := len(bc.Blocks)

	// Partition the window (i, j) exactly as ReplaceMerge will.
	reach := make([]bool, n)
	reach[i] = true
	for v := i + 1; v < j; v++ {
		for _, p := range dag.Preds[v] {
			if reach[p] {
				reach[v] = true
				break
			}
		}
	}
	sets := make([][]int, 0, n-1)
	weights := make([]float64, 0, n-1)
	add := func(qs []int, w float64) {
		sets = append(sets, qs)
		weights = append(weights, w)
	}
	for v := 0; v < i; v++ {
		add(bc.Blocks[v].Qubits, bc.Blocks[v].Latency)
	}
	for v := i + 1; v < j; v++ {
		if !reach[v] {
			add(bc.Blocks[v].Qubits, bc.Blocks[v].Latency)
		}
	}
	add(unionQubits(bc.Blocks[i], bc.Blocks[j]), lab)
	for v := i + 1; v < j; v++ {
		if reach[v] {
			add(bc.Blocks[v].Qubits, bc.Blocks[v].Latency)
		}
	}
	for v := j + 1; v < n; v++ {
		add(bc.Blocks[v].Qubits, bc.Blocks[v].Latency)
	}
	return circuit.BuildQubitDAG(bc.NumQubits, sets).CriticalPathLength(weights)
}

func unionWidth(a, b *Block) int { return len(unionQubits(a, b)) }

func unionQubits(a, b *Block) []int {
	set := map[int]bool{}
	for _, q := range a.Qubits {
		set[q] = true
	}
	for _, q := range b.Qubits {
		set[q] = true
	}
	out := make([]int, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sortInts(out)
	return out
}

func subset(inner, outer []int) bool {
	set := map[int]bool{}
	for _, q := range outer {
		set[q] = true
	}
	for _, q := range inner {
		if !set[q] {
			return false
		}
	}
	return true
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k] < s[k-1]; k-- {
			s[k], s[k-1] = s[k-1], s[k]
		}
	}
}
