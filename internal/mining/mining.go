// Package mining implements the frequent-subcircuits miner of §III-A: it
// views the circuit as a labeled directed graph (nodes: gates labeled with
// operation + angle, symbolic for parameterized circuits; edges: shared
// qubits labeled with the operand roles on both ends, so control/target
// distinctions disambiguate look-alike patterns, Fig. 5), enumerates
// connected subcircuits up to a size cap, canonicalizes them, and counts
// recurrences. Selected patterns become APA-basis gates.
package mining

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"paqoc/internal/circuit"
	"paqoc/internal/obs"
)

// Options bounds the search.
type Options struct {
	MaxGates   int // pattern size cap (default 6)
	MaxQubits  int // the paper's maxN (default 3)
	MinSupport int // minimum disjoint occurrences (default 2)
	EnumLimit  int // safety cap on enumerated subcircuits (default 300000)
}

// DefaultOptions mirrors the paper's evaluation (maxN = 3).
func DefaultOptions() Options {
	return Options{MaxGates: 6, MaxQubits: 3, MinSupport: 2, EnumLimit: 300000}
}

// Validate rejects option values that fill used to clamp silently. Zero
// still means "use the default" for every field; anything negative — and a
// MaxGates of 1, which cannot hold a pattern (patterns have at least two
// gates) — is a caller error that the public entry points (MineCtx,
// MineCorpus, NewTable) now report instead of quietly rewriting.
func (o Options) Validate() error {
	switch {
	case o.MaxGates < 0:
		return fmt.Errorf("mining: MaxGates %d is negative (0 selects the default)", o.MaxGates)
	case o.MaxGates == 1:
		return fmt.Errorf("mining: MaxGates 1 cannot hold a pattern: patterns have at least 2 gates (0 selects the default)")
	case o.MaxQubits < 0:
		return fmt.Errorf("mining: MaxQubits %d is negative (0 selects the default)", o.MaxQubits)
	case o.MinSupport < 0:
		return fmt.Errorf("mining: MinSupport %d is negative (0 selects the default)", o.MinSupport)
	case o.EnumLimit < 0:
		return fmt.Errorf("mining: EnumLimit %d is negative (0 selects the default)", o.EnumLimit)
	}
	return nil
}

func (o *Options) fill() {
	if o.MaxGates == 0 {
		o.MaxGates = 6
	}
	if o.MaxQubits == 0 {
		o.MaxQubits = 3
	}
	if o.MinSupport == 0 {
		o.MinSupport = 2
	}
	if o.EnumLimit == 0 {
		o.EnumLimit = 300000
	}
}

// Pattern is one recurring subcircuit.
type Pattern struct {
	Signature  string
	GateCount  int
	QubitCount int
	// Embeddings are the gate-index sets realizing the pattern, sorted
	// ascending within each set; sets may overlap each other.
	Embeddings [][]int
	// Support is the size of a maximal greedy disjoint sub-family.
	Support int
}

// Coverage is the number of circuit gates covered by disjoint embeddings.
func (p *Pattern) Coverage() int { return p.Support * p.GateCount }

// MineCtx enumerates frequent subcircuits of the circuit, returning
// patterns with at least MinSupport disjoint occurrences and at least two
// gates, sorted by coverage (descending), ties by signature for
// determinism. Invalid options (Options.Validate) are an error.
// Observability: a "mining.enumerate" span around the
// connected-subcircuit walk and counters for subcircuits enumerated,
// extensions pruned by the qubit cap, pattern count, and whether the
// enumeration budget overflowed.
func MineCtx(ctx context.Context, c *circuit.Circuit, opts Options) ([]Pattern, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	g := enumerateBySig(ctx, c, opts, opts.MinSupport)

	// Rank the frequent signatures first, so the sort moves no pointers.
	type frequent struct{ id, k, support int }
	n := 0
	for id := range g.sigs {
		if g.count(id) >= opts.MinSupport {
			n++
		}
	}
	keep := make([]frequent, 0, n)
	for id := range g.sigs {
		if g.count(id) >= opts.MinSupport {
			run, k := g.run(id)
			if support := g.disjoint(run, k); support >= opts.MinSupport {
				keep = append(keep, frequent{id, k, support})
				continue
			}
		}
		g.sigs[id] = "" // release the signatures no pattern keeps
	}
	slices.SortFunc(keep, func(a, b frequent) int {
		return cmp.Or(cmp.Compare(b.support*b.k, a.support*a.k), strings.Compare(g.sigs[a.id], g.sigs[b.id]))
	})
	out := make([]Pattern, len(keep))
	for i, f := range keep {
		run := g.sets[g.start[f.id]:g.start[f.id+1]] // sorted by g.run above
		out[i] = Pattern{
			Signature:  g.sigs[f.id],
			GateCount:  f.k,
			QubitCount: countQubits(c, run[:f.k]),
			Embeddings: embeddings(run, f.k),
			Support:    f.support,
		}
	}
	obs.MetricsFrom(ctx).Counter("mining.patterns").Add(int64(len(out)))
	return out, nil
}

// embeddings materializes a sorted run of k-gate sets as capped
// sub-slices of one backing array.
func embeddings(run []int32, k int) [][]int {
	backing := make([]int, len(run))
	for i, gi := range run {
		backing[i] = int(gi)
	}
	out := make([][]int, len(run)/k)
	for i := range out {
		out[i] = backing[i*k : (i+1)*k : (i+1)*k]
	}
	return out
}

// enumerateBySig runs the connected-subcircuit walk on one circuit and
// groups the sets by canonical signature — the per-circuit primitive
// shared by MineCtx, MineCorpus, and the incremental Table, so all three
// agree on signatures by construction. Signatures with fewer than
// minCount sets keep an empty run. opts must already be validated and
// filled.
func enumerateBySig(ctx context.Context, c *circuit.Circuit, opts Options, minCount int) *groups {
	reg := obs.MetricsFrom(ctx)
	_, span := obs.StartSpan(ctx, "mining.enumerate")
	e := newEnumerator(c, opts)
	e.run()
	g := e.group(minCount)
	span.SetAttr("signatures", len(g.sigs))
	span.SetAttr("overflow", e.overflow)
	span.End()
	reg.Counter("mining.subcircuits_enumerated").Add(e.enumerated)
	reg.Counter("mining.pruned_qubit_cap").Add(e.pruned)
	if e.overflow {
		reg.Counter("mining.enum_overflows").Inc()
	}
	return g
}

// groups is one circuit's enumeration: every distinct signature once, by
// id, and every set's gate indices back to back in one slab, one run per
// signature.
type groups struct {
	sigs   []string
	stride []int32 // gates per set, by signature id
	start  []int   // signature id's run is sets[start[id]:start[id+1]]
	sets   []int32
	used   []bool    // per gate: disjoint's scratch, all false between calls
	sorter runSorter // reused, so sorting a run allocates nothing
}

// count returns the number of sets with signature id.
func (g *groups) count(id int) int {
	return (g.start[id+1] - g.start[id]) / int(g.stride[id])
}

// run sorts signature id's sets lexicographically, in place, and returns
// them with their gate count.
func (g *groups) run(id int) ([]int32, int) {
	k := int(g.stride[id])
	r := g.sets[g.start[id]:g.start[id+1]]
	if len(r) > k {
		g.sorter = runSorter{r, k}
		sort.Sort(&g.sorter)
	}
	return r, k
}

// disjoint counts a maximal prefix-greedy family of pairwise-disjoint sets
// in a sorted run of k-gate sets.
func (g *groups) disjoint(run []int32, k int) int {
	n := 0
next:
	for r := 0; r < len(run); r += k {
		set := run[r : r+k]
		for _, gi := range set {
			if g.used[gi] {
				continue next
			}
		}
		for _, gi := range set {
			g.used[gi] = true
		}
		n++
	}
	for _, gi := range run {
		g.used[gi] = false
	}
	return n
}

// runSorter orders a run of k-gate sets lexicographically, in place.
type runSorter struct {
	sets []int32
	k    int
}

func (s *runSorter) Len() int { return len(s.sets) / s.k }

func (s *runSorter) Less(i, j int) bool {
	k := s.k
	return slices.Compare(s.sets[i*k:(i+1)*k], s.sets[j*k:(j+1)*k]) < 0
}

func (s *runSorter) Swap(i, j int) {
	a, b := s.sets[i*s.k:(i+1)*s.k], s.sets[j*s.k:(j+1)*s.k]
	for x := range a {
		a[x], b[x] = b[x], a[x]
	}
}

// enumerator walks connected gate sets and interns their signatures. The
// set being grown, the candidates at each depth and the qubits at each
// depth live in buffers sized once per circuit.
type enumerator struct {
	c        *circuit.Circuit
	opts     Options
	adj      [][]int  // undirected wire adjacency (immediate neighbours)
	labels   []string // Gate.Label per gate, computed once
	budget   int
	overflow bool

	sub    []int   // the set being grown, in order of addition: sub[:d] at depth d
	cands  [][]int // cands[d]: the gates that may extend sub[:d]
	qubits []int   // distinct qubits of sub[:d], in order of first use: qubits[:nq[d]]
	nq     []int
	set    []int // sub sorted ascending, as the signature sees it
	sig    sigScratch

	ids    map[string]int32 // signature → id
	sigs   []string         // signature by id
	stride []int32          // gates per set, by id
	slab   [][]int32        // chunks of records: signature id, then the set's gates

	enumerated, pruned int64 // added to their counters once the walk ends
}

// slabChunk is the int32s per full slab chunk: the slab grows without
// copying, and at most one partly filled chunk is spare. The first four
// chunks are smaller (1/16, 1/8, 1/4, 1/2), for small circuits.
const slabChunk = 1 << 12

func newEnumerator(c *circuit.Circuit, opts Options) *enumerator {
	dag := circuit.BuildDAG(c)
	adj := make([][]int, len(c.Gates))
	labels := make([]string, len(c.Gates))
	for i := range adj {
		adj[i] = append(append([]int(nil), dag.Preds[i]...), dag.Succs[i]...)
		sort.Ints(adj[i])
		labels[i] = c.Gates[i].Label()
	}
	return &enumerator{
		c: c, opts: opts, adj: adj, labels: labels, budget: opts.EnumLimit,
		sub:   make([]int, 0, opts.MaxGates+1),
		cands: make([][]int, opts.MaxGates+1),
		nq:    make([]int, opts.MaxGates+1),
		ids:   make(map[string]int32),
	}
}

// run records every connected gate set with 2..MaxGates gates and at most
// MaxQubits qubits, each set exactly once (standard connected-subgraph
// enumeration anchored at the minimum element).
func (e *enumerator) run() {
	for s := range e.c.Gates {
		if e.overflow {
			return
		}
		cand := e.cands[1][:0]
		for _, v := range e.adj[s] {
			if v > s {
				cand = append(cand, v)
			}
		}
		e.cands[1] = cand
		e.sub = append(e.sub[:0], s)
		e.qubitsWith(0, s)
		e.grow(1, s)
	}
}

// grow records sub[:d] and extends it by each of cands[d] in turn.
func (e *enumerator) grow(d, anchor int) {
	if d >= 2 {
		e.budget--
		if e.budget <= 0 {
			e.overflow = true
			return
		}
		e.enumerated++
		e.record(e.sub[:d])
	}
	if d >= e.opts.MaxGates {
		return
	}
	sub, cand := e.sub[:d], e.cands[d]
	for i, v := range cand {
		if e.qubitsWith(d, v) > e.opts.MaxQubits {
			e.pruned++
			continue
		}
		if e.overflow {
			continue // an overflow still counts this loop's qubit-cap prunes
		}
		// New candidate list: remaining candidates plus v's unseen
		// neighbours above the anchor.
		next := append(e.cands[d+1][:0], cand[i+1:]...)
		for _, nb := range e.adj[v] {
			// Skip members, candidates already listed, and neighbours
			// added above (sets are small: linear scans).
			if nb > anchor && !slices.Contains(sub, nb) && !slices.Contains(cand, nb) && !slices.Contains(next[len(cand)-i-1:], nb) {
				next = append(next, nb)
			}
		}
		e.cands[d+1] = next
		e.sub = append(e.sub[:d], v)
		e.grow(d+1, anchor)
	}
}

// qubitsWith counts the distinct qubits of sub[:d] plus gate v, leaving
// them in qubits[:nq[d+1]] for the extension by v.
func (e *enumerator) qubitsWith(d, v int) int {
	qs := e.qubits[:e.nq[d]]
	for _, q := range e.c.Gates[v].Qubits {
		if !slices.Contains(qs, q) {
			qs = append(qs, q)
		}
	}
	e.qubits = qs
	e.nq[d+1] = len(qs)
	return len(qs)
}

// record files one set under its interned signature in the slab.
func (e *enumerator) record(sub []int) {
	set := append(e.set[:0], sub...)
	slices.Sort(set)
	e.set = set
	sig := e.signature(set)
	id, ok := e.ids[string(sig)] // no allocation for the lookup
	if !ok {
		id = int32(len(e.sigs))
		s := string(sig)
		e.ids[s] = id
		e.sigs = append(e.sigs, s)
		e.stride = append(e.stride, int32(len(set)))
	}
	n := len(e.slab)
	if n == 0 || cap(e.slab[n-1])-len(e.slab[n-1]) <= len(set) {
		e.slab = append(e.slab, make([]int32, 0, max(slabChunk>>max(4-n, 0), len(set)+1)))
		n++
	}
	chunk := append(e.slab[n-1], id)
	for _, gi := range set {
		chunk = append(chunk, int32(gi))
	}
	e.slab[n-1] = chunk
}

// group counting-sorts the slab into one run per signature, leaving the
// runs of signatures with fewer than minCount sets empty and their
// strings released. It releases the intern table before allocating the
// runs, and each slab chunk once its records are placed.
func (e *enumerator) group(minCount int) *groups {
	e.ids = nil
	n := len(e.sigs)
	start := make([]int, n+1) // first the length of run id at id+1
	for _, chunk := range e.slab {
		for r := 0; r < len(chunk); {
			id := chunk[r]
			k := int(e.stride[id])
			start[id+1] += k
			r += 1 + k
		}
	}
	for id := range n {
		if start[id+1] < minCount*int(e.stride[id]) {
			start[id+1] = 0
			e.sigs[id] = "" // no signature is empty: marks the run dropped
		}
		start[id+1] += start[id]
	}
	sets := make([]int32, start[n])
	// start[id] is the write cursor of id's run; once every record is
	// placed it has reached the run's end, start[id+1], and shifting the
	// cursors up by one restores the starts.
	for i, chunk := range e.slab {
		for r := 0; r < len(chunk); {
			id := chunk[r]
			k := int(e.stride[id])
			if e.sigs[id] != "" {
				start[id] += copy(sets[start[id]:], chunk[r+1:r+1+k])
			}
			r += 1 + k
		}
		e.slab[i] = nil
	}
	copy(start[1:], start[:n])
	start[0] = 0
	g := &groups{sigs: e.sigs, stride: e.stride, start: start, sets: sets, used: make([]bool, len(e.c.Gates))}
	e.slab = nil
	return g
}

// signature canonicalizes a gate set: a deterministic topological order of
// the induced wire structure with local qubit renaming by first
// appearance. Each entry records the gate label and its operand wires, so
// control/target roles (the paper's edge labels) are captured exactly:
// "label:w,w|label:w|…". The result lives in the enumerator's scratch and
// is only valid until the next call. Sets are tiny (≤ MaxGates gates), so
// the induced DAG is kept in slices indexed by set position.
func (e *enumerator) signature(set []int) []byte {
	s := &e.sig
	k := len(set)
	preds := append(s.preds[:0], make([]int, k)...)
	for len(s.succs) < k {
		s.succs = append(s.succs, nil)
	}
	succs := s.succs[:k]
	// Induced dependence edges: consecutive set gates on each wire.
	wires := s.wires[:0]
	for p, gi := range set { // set sorted ascending = program order
		succs[p] = succs[p][:0]
	qubits:
		for _, q := range e.c.Gates[gi].Qubits {
			for i := range wires {
				if w := &wires[i]; w.q == q {
					preds[p]++
					succs[w.last] = append(succs[w.last], p)
					w.last = p
					continue qubits
				}
			}
			wires = append(wires, wire{q, p})
		}
	}

	ready := s.ready[:0]
	for p, n := range preds {
		if n == 0 {
			ready = append(ready, p)
		}
	}
	local, out := s.local[:0], s.out[:0]
	for len(ready) > 0 {
		// Deterministic choice: minimal canonical key, ties by index. A
		// lone ready gate needs no key.
		best := 0
		if len(ready) > 1 {
			s.best = e.appendKey(s.best[:0], set[ready[0]], local)
			for i := 1; i < len(ready); i++ {
				s.key = e.appendKey(s.key[:0], set[ready[i]], local)
				if c := bytes.Compare(s.key, s.best); c < 0 || (c == 0 && ready[i] < ready[best]) {
					best = i
					s.key, s.best = s.best, s.key
				}
			}
		}
		p := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		gi := set[p]
		if len(out) > 0 {
			out = append(out, '|')
		}
		out = append(out, e.labels[gi]...)
		out = append(out, ':')
		for i, q := range e.c.Gates[gi].Qubits {
			id := slices.Index(local, q)
			if id < 0 {
				id = len(local)
				local = append(local, q)
			}
			if i > 0 {
				out = append(out, ',')
			}
			out = appendID(out, id)
		}
		for _, c := range succs[p] {
			preds[c]--
			if preds[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	s.preds, s.wires, s.ready, s.local, s.out = preds, wires, ready, local, out
	return out
}

// appendKey appends gate gi's ordering key: its label and operand wires
// by their ids in local, "?" for a wire not yet named (compares equal
// across embeddings).
func (e *enumerator) appendKey(b []byte, gi int, local []int) []byte {
	b = append(b, e.labels[gi]...)
	b = append(b, ':')
	for i, q := range e.c.Gates[gi].Qubits {
		if i > 0 {
			b = append(b, ',')
		}
		if id := slices.Index(local, q); id >= 0 {
			b = appendID(b, id)
		} else {
			b = append(b, '?')
		}
	}
	return b
}

// appendID appends a local wire id in decimal.
func appendID(b []byte, id int) []byte {
	if id < 10 {
		return append(b, byte('0'+id))
	}
	return strconv.AppendInt(b, int64(id), 10)
}

// wire is a physical qubit and the last set position on it.
type wire struct{ q, last int }

// sigScratch is signature's reusable state.
type sigScratch struct {
	preds     []int   // per set position: unplaced in-set predecessors
	succs     [][]int // per set position: in-set successor positions
	wires     []wire  // qubits of the set
	local     []int   // qubits in order of first appearance: index = local id
	ready     []int
	key, best []byte
	out       []byte
}
