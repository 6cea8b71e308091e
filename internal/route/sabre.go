// Package route implements SABRE-style qubit mapping and SWAP insertion
// (Li, Ding, Xie — ASPLOS 2019), the routing pass the paper's platform uses
// (§VI-c). It converts a logical circuit into a physical circuit that only
// applies two-qubit gates across coupled qubit pairs.
package route

import (
	"fmt"
	"sort"

	"paqoc/internal/circuit"
	"paqoc/internal/topology"
)

// Result is the outcome of routing: the physical circuit (with SWAPs
// inserted), the initial logical→physical mapping used, and the final
// mapping after all SWAPs.
type Result struct {
	Physical   *circuit.Circuit
	InitialMap []int // InitialMap[logical] = physical
	FinalMap   []int
	SwapCount  int
}

// Options tunes the router.
type Options struct {
	// InitialMap overrides the identity initial mapping when non-nil.
	InitialMap []int
}

// DefaultOptions returns the identity initial mapping.
func DefaultOptions() Options {
	return Options{}
}

// The published SABRE heuristics.
const (
	// extendedSize is the lookahead window (number of future 2q gates
	// considered beyond the front layer). 20 is the SABRE default regime.
	extendedSize = 20
	// extendedWeight scales the lookahead term in the SWAP score.
	extendedWeight = 0.5
	// decayFactor penalises re-swapping the same qubit in quick
	// succession.
	decayFactor = 0.001
)

// Route maps a logical circuit onto the topology. The circuit may contain
// only 1- and 2-qubit gates (decompose 3-qubit gates first; see
// internal/transpile). The physical circuit has the topology's qubit count.
func Route(c *circuit.Circuit, topo *topology.Topology, opts Options) (*Result, error) {
	if c.NumQubits > topo.NumQubits {
		return nil, fmt.Errorf("route: circuit has %d qubits but device has %d", c.NumQubits, topo.NumQubits)
	}
	for _, g := range c.Gates {
		if g.Arity() > 2 {
			return nil, fmt.Errorf("route: gate %s has arity %d; decompose before routing", g.Name, g.Arity())
		}
	}

	dist := topo.Distances()
	dag := circuit.BuildDAG(c)

	// l2p[logical] = physical, p2l inverse (-1 when unoccupied).
	l2p := make([]int, c.NumQubits)
	p2l := make([]int, topo.NumQubits)
	for i := range p2l {
		p2l[i] = -1
	}
	if opts.InitialMap != nil {
		if len(opts.InitialMap) != c.NumQubits {
			return nil, fmt.Errorf("route: initial map has %d entries, want %d", len(opts.InitialMap), c.NumQubits)
		}
		copy(l2p, opts.InitialMap)
	} else {
		for i := range l2p {
			l2p[i] = i
		}
	}
	for l, p := range l2p {
		if p < 0 || p >= topo.NumQubits || p2l[p] != -1 {
			return nil, fmt.Errorf("route: invalid initial map at logical %d", l)
		}
		p2l[p] = l
	}
	initial := append([]int(nil), l2p...)

	out := circuit.New(topo.NumQubits)
	remainingPreds := make([]int, dag.NumGates)
	for i, ps := range dag.Preds {
		remainingPreds[i] = len(ps)
	}
	var front []int
	for i := 0; i < dag.NumGates; i++ {
		if remainingPreds[i] == 0 {
			front = append(front, i)
		}
	}
	decay := make([]float64, topo.NumQubits)
	swaps := 0
	stall := 0

	execute := func(gi int) {
		g := c.Gates[gi]
		phys := make([]int, len(g.Qubits))
		for i, q := range g.Qubits {
			phys[i] = l2p[q]
		}
		ng := g.Clone()
		ng.Qubits = phys
		out.AddGate(ng)
		for _, s := range dag.Succs[gi] {
			remainingPreds[s]--
			if remainingPreds[s] == 0 {
				front = append(front, s)
			}
		}
	}

	applySwap := func(pa, pb int) {
		out.Add("swap", pa, pb)
		la, lb := p2l[pa], p2l[pb]
		p2l[pa], p2l[pb] = lb, la
		if la >= 0 {
			l2p[la] = pb
		}
		if lb >= 0 {
			l2p[lb] = pa
		}
		decay[pa] += decayFactor
		decay[pb] += decayFactor
		swaps++
	}

	for len(front) > 0 {
		// Execute every currently executable front gate. execute() appends
		// newly-unblocked successors to front, so drain into a snapshot.
		cur := front
		front = nil
		progressed := false
		for _, gi := range cur {
			g := c.Gates[gi]
			if g.Arity() == 1 || topo.Connected(l2p[g.Qubits[0]], l2p[g.Qubits[1]]) {
				execute(gi)
				progressed = true
			} else {
				front = append(front, gi)
			}
		}
		if progressed {
			stall = 0
			for i := range decay {
				decay[i] = 0
			}
			continue
		}
		if len(front) == 0 {
			break
		}

		// All front gates are blocked 2q gates: choose a SWAP.
		extended := lookahead(c, dag, remainingPreds, front, extendedSize)
		candidates := swapCandidates(topo, c, front, l2p)
		if len(candidates) == 0 {
			return nil, fmt.Errorf("route: no swap candidates; topology disconnected?")
		}
		best := candidates[0]
		bestScore := swapScore(best, c, dist, l2p, p2l, front, extended, decay)
		for _, cand := range candidates[1:] {
			if s := swapScore(cand, c, dist, l2p, p2l, front, extended, decay); s < bestScore {
				best, bestScore = cand, s
			}
		}
		applySwap(best[0], best[1])

		// Livelock guard: if heuristics thrash, walk the first blocked gate's
		// qubits together along a shortest path.
		stall++
		if stall > 4*topo.NumQubits {
			g := c.Gates[front[0]]
			pa, pb := l2p[g.Qubits[0]], l2p[g.Qubits[1]]
			for !topo.Connected(pa, pb) {
				step := pa
				for _, nb := range topo.Neighbors(pa) {
					if dist[nb][pb] < dist[step][pb] {
						step = nb
					}
				}
				applySwap(pa, step)
				pa = step
			}
			stall = 0
		}
	}

	return &Result{Physical: out, InitialMap: initial, FinalMap: l2p, SwapCount: swaps}, nil
}

// lookahead collects up to size two-qubit gates that follow the front layer
// in dependence order (the SABRE extended set).
func lookahead(c *circuit.Circuit, dag *circuit.DAG, remainingPreds []int, front []int, size int) []int {
	var ext []int
	seen := make(map[int]bool)
	queue := append([]int(nil), front...)
	for len(queue) > 0 && len(ext) < size {
		v := queue[0]
		queue = queue[1:]
		for _, s := range dag.Succs[v] {
			if seen[s] {
				continue
			}
			seen[s] = true
			if c.Gates[s].Arity() == 2 {
				ext = append(ext, s)
			}
			queue = append(queue, s)
		}
	}
	return ext
}

// swapCandidates lists device edges touching any physical qubit involved in
// a blocked front gate.
func swapCandidates(topo *topology.Topology, c *circuit.Circuit, front []int, l2p []int) [][2]int {
	involved := make(map[int]bool)
	for _, gi := range front {
		for _, q := range c.Gates[gi].Qubits {
			involved[l2p[q]] = true
		}
	}
	seen := make(map[[2]int]bool)
	var out [][2]int
	for p := range involved {
		for _, nb := range topo.Neighbors(p) {
			e := [2]int{p, nb}
			if nb < p {
				e = [2]int{nb, p}
			}
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// swapScore evaluates the SABRE heuristic H for applying the given swap:
// front-layer distance sum plus weighted lookahead distance sum, scaled by
// the decay of the swapped qubits.
func swapScore(swap [2]int, c *circuit.Circuit, dist [][]int, l2p, p2l []int, front, extended []int, decay []float64) float64 {
	// Build the trial mapping after the swap (logical view only).
	trial := func(l int) int {
		p := l2p[l]
		switch p {
		case swap[0]:
			return swap[1]
		case swap[1]:
			return swap[0]
		default:
			return p
		}
	}
	var frontSum float64
	for _, gi := range front {
		g := c.Gates[gi]
		frontSum += float64(dist[trial(g.Qubits[0])][trial(g.Qubits[1])])
	}
	frontSum /= float64(len(front))
	var extSum float64
	if len(extended) > 0 {
		for _, gi := range extended {
			g := c.Gates[gi]
			extSum += float64(dist[trial(g.Qubits[0])][trial(g.Qubits[1])])
		}
		extSum = extendedWeight * extSum / float64(len(extended))
	}
	d := 1 + decay[swap[0]] + decay[swap[1]]
	return d * (frontSum + extSum)
}

// RouteBidirectional refines the initial layout with SABRE's
// forward–backward passes: the final mapping of a pass over the reversed
// circuit seeds the next forward pass. The best forward result (fewest
// SWAPs) across all passes is returned; with passes = 0 it degenerates to
// plain Route.
func RouteBidirectional(c *circuit.Circuit, topo *topology.Topology, opts Options, passes int) (*Result, error) {
	best, err := Route(c, topo, opts)
	if err != nil {
		return nil, err
	}
	rev := circuit.New(c.NumQubits)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		rev.AddGate(c.Gates[i].Clone())
	}
	cur := best.FinalMap
	for p := 0; p < passes; p++ {
		o := opts
		o.InitialMap = cur
		back, err := Route(rev, topo, o)
		if err != nil {
			return nil, err
		}
		o.InitialMap = back.FinalMap
		fwd, err := Route(c, topo, o)
		if err != nil {
			return nil, err
		}
		if fwd.SwapCount < best.SwapCount {
			best = fwd
		}
		cur = fwd.FinalMap
	}
	return best, nil
}
