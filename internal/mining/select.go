package mining

import "paqoc/internal/circuit"

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
// threading through — are committed.
func Select(c *circuit.Circuit, patterns []Pattern, m int, minSupport int) []Selection {
	if m == 0 {
		return nil
	}
	if minSupport <= 0 {
		minSupport = 2
	}
	dag := circuit.BuildDAG(c)
	covered := make([]bool, len(c.Gates))
	var out []Selection

	// Every round re-scores every remaining pattern. The trial commits
	// share one scratch state and two buffers, swapped when a trial wins;
	// only the round's winner is copied out.
	used := make([]bool, len(c.Gates))
	var chosen, bestChosen [][]int
	remaining := append([]Pattern(nil), patterns...)
	for m < 0 || len(out) < m {
		bestIdx := -1
		bestGain := 0
		for pi, p := range remaining {
			chosen = commitEmbeddings(dag, p.Embeddings, covered, used, chosen[:0])
			if len(chosen) < minSupport {
				continue
			}
			gain := len(chosen) * p.GateCount
			if gain > bestGain || (gain == bestGain && bestIdx >= 0 && p.Signature < remaining[bestIdx].Signature) {
				bestIdx, bestGain = pi, gain
				chosen, bestChosen = bestChosen, chosen
			}
		}
		if bestIdx < 0 {
			break
		}
		for _, emb := range bestChosen {
			for _, gi := range emb {
				covered[gi] = true
			}
		}
		out = append(out, Selection{Pattern: remaining[bestIdx], Chosen: append([][]int(nil), bestChosen...)})
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return out
}

// TunedM returns the paper's paqoc(M=tuned) knob: the smallest M whose
// selections make APA-covered gates the majority of the circuit, or the
// maximum achievable M when even full selection cannot reach majority.
func TunedM(c *circuit.Circuit, patterns []Pattern, minSupport int) int {
	full := Select(c, patterns, -1, minSupport)
	covered := 0
	for mIdx, sel := range full {
		covered += sel.CoveredGates()
		if 2*covered > len(c.Gates) {
			return mIdx + 1
		}
	}
	return len(full)
}

// commitEmbeddings greedily picks pairwise-disjoint, convex embeddings
// avoiding already-covered gates, appending them to out. used is scratch
// of one flag per gate, all false on entry and on return.
func commitEmbeddings(dag *circuit.DAG, embeds [][]int, covered, used []bool, out [][]int) [][]int {
	for _, emb := range embeds {
		ok := true
		for _, gi := range emb {
			if covered[gi] || used[gi] {
				ok = false
				break
			}
		}
		if !ok || !Convex(dag, emb) {
			continue
		}
		for _, gi := range emb {
			used[gi] = true
		}
		out = append(out, emb)
	}
	for _, emb := range out {
		for _, gi := range emb {
			used[gi] = false
		}
	}
	return out
}

// Convex reports whether the gate set can be executed as one unit: no
// dependence path leaves the set and re-enters it. emb must be sorted.
func Convex(dag *circuit.DAG, emb []int) bool {
	if len(emb) == 0 {
		return true
	}
	lo, hi := emb[0], emb[len(emb)-1]
	// One mark per gate in [lo, hi]: in the set, or an outside gate
	// reachable from it (tainted).
	const inSet, tainted = 1, 2
	mark := make([]byte, hi-lo+1)
	for _, gi := range emb {
		mark[gi-lo] = inSet
	}
	// Forward-mark outside gates in (lo, hi) reachable from the set; if any
	// marked outside gate feeds back into the set, the set is not convex.
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
					return false
				}
				mark[s-lo] = tainted
			}
		}
	}
	return true
}
