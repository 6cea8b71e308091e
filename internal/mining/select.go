package mining

import (
	"slices"

	"paqoc/internal/circuit"
)

// Selection is one APA-basis gate choice: a pattern plus the disjoint,
// convex embeddings committed for replacement.
type Selection struct {
	Pattern Pattern
	Chosen  [][]int
}

// CoveredGates counts gates covered by this selection.
func (s *Selection) CoveredGates() int { return len(s.Chosen) * s.Pattern.GateCount }

// Select greedily chooses up to m APA-basis patterns by marginal coverage
// (§III-A: "we consider which frequent subcircuits to use based on its
// coverage of the circuit"). m < 0 removes the limit (the paper's
// paqoc(M=inf)); m == 0 selects nothing (paqoc(M=0)). Only convex
// embeddings — groupable as a single unit without outside dependences
// threading through — are committed. Each round depends only on the
// rounds before it, so Select(m) is the first m selections of Select(-1).
func Select(c *circuit.Circuit, patterns []Pattern, m int, minSupport int) []Selection {
	if m == 0 {
		return nil
	}
	if minSupport <= 0 {
		minSupport = 2
	}
	s := newSelector(c, patterns)
	var out []Selection

	// Every round re-scores every remaining pattern. The trial commits
	// share one scratch state and two buffers, swapped when a trial wins;
	// only the round's winner is copied out.
	var chosen, bestChosen [][]int
	remaining := make([]int, len(patterns)) // indices into patterns
	for i := range remaining {
		remaining[i] = i
	}
	for m < 0 || len(out) < m {
		bestIdx := -1
		bestGain := 0
		for ri, pi := range remaining {
			p := &patterns[pi]
			chosen = s.commit(pi, chosen[:0])
			if len(chosen) < minSupport {
				continue
			}
			gain := len(chosen) * p.GateCount
			if gain > bestGain || (gain == bestGain && bestIdx >= 0 && p.Signature < patterns[remaining[bestIdx]].Signature) {
				bestIdx, bestGain = ri, gain
				chosen, bestChosen = bestChosen, chosen
			}
		}
		if bestIdx < 0 {
			break
		}
		for _, emb := range bestChosen {
			for _, gi := range emb {
				s.covered[gi] = true
			}
		}
		out = append(out, Selection{Pattern: patterns[remaining[bestIdx]], Chosen: append([][]int(nil), bestChosen...)})
		remaining = slices.Delete(remaining, bestIdx, bestIdx+1)
	}
	return out
}

// TunedM returns the paper's paqoc(M=tuned) knob: the smallest M whose
// selections make APA-covered gates the majority of the circuit, or the
// maximum achievable M when even full selection cannot reach majority.
func TunedM(c *circuit.Circuit, patterns []Pattern, minSupport int) int {
	return len(SelectTuned(c, patterns, minSupport))
}

// SelectTuned is Select(c, patterns, TunedM(c, patterns, minSupport),
// minSupport) from one selection pass: the tuned prefix of Select(-1),
// nil when it is empty.
func SelectTuned(c *circuit.Circuit, patterns []Pattern, minSupport int) []Selection {
	full := Select(c, patterns, -1, minSupport)
	covered := 0
	for i, sel := range full {
		covered += sel.CoveredGates()
		if 2*covered > len(c.Gates) {
			return full[: i+1 : i+1]
		}
	}
	return full
}

// selector is one Select call's state: the gates covered so far, the
// scratch flags of a trial commit, and each embedding's convexity,
// computed on first use (it depends only on the DAG).
type selector struct {
	dag      *circuit.DAG
	patterns []Pattern
	covered  []bool
	used     []bool // per gate: commit's scratch, all false between calls
	mark     []byte // per gate: convex's scratch, all zero between calls
	first    []int  // pattern pi's embeddings are memo[first[pi]:first[pi+1]]
	memo     []byte // per embedding: 0 unknown, else convex or notConvex
}

const (
	isConvex = 1 + iota
	notConvex
)

func newSelector(c *circuit.Circuit, patterns []Pattern) *selector {
	n := len(c.Gates)
	first := make([]int, len(patterns)+1)
	for pi, p := range patterns {
		first[pi+1] = first[pi] + len(p.Embeddings)
	}
	return &selector{
		dag:      circuit.BuildDAG(c),
		patterns: patterns,
		covered:  make([]bool, n),
		used:     make([]bool, n),
		mark:     make([]byte, n),
		first:    first,
		memo:     make([]byte, first[len(patterns)]),
	}
}

// commit greedily picks pattern pi's pairwise-disjoint, convex embeddings
// that avoid already-covered gates, appending them to out.
func (s *selector) commit(pi int, out [][]int) [][]int {
	memo := s.memo[s.first[pi]:s.first[pi+1]]
next:
	for j, emb := range s.patterns[pi].Embeddings {
		for _, gi := range emb {
			if s.covered[gi] || s.used[gi] {
				continue next
			}
		}
		if memo[j] == 0 {
			memo[j] = notConvex
			if convex(s.dag, emb, s.mark) {
				memo[j] = isConvex
			}
		}
		if memo[j] == notConvex {
			continue
		}
		for _, gi := range emb {
			s.used[gi] = true
		}
		out = append(out, emb)
	}
	for _, emb := range out {
		for _, gi := range emb {
			s.used[gi] = false
		}
	}
	return out
}

// convex reports whether the gate set can be executed as one unit: no
// dependence path leaves the set and re-enters it. emb must be sorted;
// mark holds one zero byte per gate and is left zeroed.
func convex(dag *circuit.DAG, emb []int, mark []byte) bool {
	if len(emb) == 0 {
		return true
	}
	lo, hi := emb[0], emb[len(emb)-1]
	// One mark per gate in [lo, hi]: in the set, or an outside gate
	// reachable from it (tainted).
	const inSet, tainted = 1, 2
	mark = mark[lo : hi+1]
	for _, gi := range emb {
		mark[gi-lo] = inSet
	}
	ok := true
	// Forward-mark outside gates in (lo, hi) reachable from the set; if any
	// marked outside gate feeds back into the set, the set is not convex.
walk:
	for v := lo; v <= hi; v++ {
		mv := mark[v-lo]
		if mv == 0 {
			continue
		}
		for _, s := range dag.Succs[v] {
			if s > hi {
				continue
			}
			if mv == inSet && mark[s-lo] != inSet {
				mark[s-lo] = tainted
			} else if mv == tainted {
				if mark[s-lo] == inSet {
					ok = false
					break walk
				}
				mark[s-lo] = tainted
			}
		}
	}
	clear(mark)
	return ok
}
