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
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"

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
	reg := obs.MetricsFrom(ctx)
	bySig := enumerateBySig(ctx, c, opts)

	n := 0
	for _, l := range bySig {
		if l.count() >= opts.MinSupport {
			n++
		}
	}
	out := make([]Pattern, 0, n)
	for sig, l := range bySig {
		// Drop each slab once read, so the slabs and the embeddings
		// materialized from them are never all live at once.
		delete(bySig, sig)
		if l.count() < opts.MinSupport {
			continue
		}
		embeds := l.sorted()
		disjoint := greedyDisjoint(embeds)
		if len(disjoint) < opts.MinSupport {
			continue
		}
		qs := map[int]bool{}
		for _, gi := range embeds[0] {
			for _, q := range c.Gates[gi].Qubits {
				qs[q] = true
			}
		}
		out = append(out, Pattern{
			Signature:  sig,
			GateCount:  len(embeds[0]),
			QubitCount: len(qs),
			Embeddings: embeds,
			Support:    len(disjoint),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Coverage() != out[j].Coverage() {
			return out[i].Coverage() > out[j].Coverage()
		}
		return out[i].Signature < out[j].Signature
	})
	reg.Counter("mining.patterns").Add(int64(len(out)))
	return out, nil
}

// enumerateBySig runs the connected-subcircuit walk on one circuit and
// groups embeddings by canonical signature — the per-circuit primitive
// shared by MineCtx, MineCorpus, and the incremental Table, so all three
// agree on signatures by construction. opts must already be validated and
// filled.
func enumerateBySig(ctx context.Context, c *circuit.Circuit, opts Options) map[string]*embedList {
	reg := obs.MetricsFrom(ctx)
	enum := newEnumerator(c, opts)
	enum.enumerated = reg.Counter("mining.subcircuits_enumerated")
	enum.pruned = reg.Counter("mining.pruned_qubit_cap")

	_, span := obs.StartSpan(ctx, "mining.enumerate")
	bySig := make(map[string]*embedList)
	enum.run(func(set []int) {
		sig := enum.signature(set)
		l := bySig[string(sig)] // no allocation for the lookup
		if l == nil {
			l = &embedList{stride: len(set)}
			bySig[string(sig)] = l
		}
		for _, gi := range set {
			l.flat = append(l.flat, int32(gi))
		}
	})
	span.SetAttr("signatures", len(bySig))
	span.SetAttr("overflow", enum.overflow)
	span.End()
	if enum.overflow {
		reg.Counter("mining.enum_overflows").Inc()
	}
	return bySig
}

// embedList holds one signature's embeddings back to back. Every
// embedding of a signature has the same gate count (stride), so the
// enumeration table keeps one int32 slab per signature rather than one
// slice per embedding; callers materialize the embeddings they need.
type embedList struct {
	stride int
	flat   []int32
}

// count returns the number of embeddings.
func (l *embedList) count() int { return len(l.flat) / l.stride }

// sorted materializes the embeddings in lexicographic order, as capped
// sub-slices of one backing array.
func (l *embedList) sorted() [][]int {
	backing := make([]int, len(l.flat))
	for i, gi := range l.flat {
		backing[i] = int(gi)
	}
	out := make([][]int, l.count())
	for k := range out {
		out[k] = backing[k*l.stride : (k+1)*l.stride : (k+1)*l.stride]
	}
	sortEmbeddings(out)
	return out
}

// enumerator walks connected gate sets.
type enumerator struct {
	c        *circuit.Circuit
	opts     Options
	adj      [][]int  // undirected wire adjacency (immediate neighbours)
	labels   []string // Gate.Label per gate, computed once
	budget   int
	overflow bool
	emitBuf  []int // the sorted set handed to emit
	qubits   []int // qubitsWith scratch
	sig      sigScratch

	enumerated *obs.Counter // connected sets emitted (nil-safe)
	pruned     *obs.Counter // extensions rejected by the qubit cap
}

func newEnumerator(c *circuit.Circuit, opts Options) *enumerator {
	dag := circuit.BuildDAG(c)
	adj := make([][]int, len(c.Gates))
	labels := make([]string, len(c.Gates))
	for i := range adj {
		adj[i] = append(append([]int(nil), dag.Preds[i]...), dag.Succs[i]...)
		sort.Ints(adj[i])
		labels[i] = c.Gates[i].Label()
	}
	return &enumerator{c: c, opts: opts, adj: adj, labels: labels, budget: opts.EnumLimit}
}

// run invokes emit for every connected gate set with 2..MaxGates gates and
// at most MaxQubits qubits, each set exactly once (standard connected-
// subgraph enumeration anchored at the minimum element). The set is
// sorted ascending and only valid during the call.
func (e *enumerator) run(emit func([]int)) {
	n := len(e.c.Gates)
	for s := 0; s < n && !e.overflow; s++ {
		var cand []int
		for _, v := range e.adj[s] {
			if v > s {
				cand = append(cand, v)
			}
		}
		e.grow([]int{s}, cand, s, emit)
	}
}

func (e *enumerator) grow(sub, cand []int, anchor int, emit func([]int)) {
	if e.overflow {
		return
	}
	if len(sub) >= 2 {
		e.budget--
		if e.budget <= 0 {
			e.overflow = true
			return
		}
		e.emitBuf = append(e.emitBuf[:0], sub...)
		sort.Ints(e.emitBuf)
		e.enumerated.Inc()
		emit(e.emitBuf)
	}
	if len(sub) >= e.opts.MaxGates {
		return
	}
	for i, v := range cand {
		if e.qubitsWith(sub, v) > e.opts.MaxQubits {
			e.pruned.Inc()
			continue
		}
		// New candidate list: remaining candidates plus v's unseen
		// neighbours above the anchor.
		next := append([]int(nil), cand[i+1:]...)
		for _, nb := range e.adj[v] {
			// Skip members, candidates already listed, and neighbours
			// added above (sets are small: linear scans).
			if nb > anchor && !slices.Contains(sub, nb) && !slices.Contains(cand, nb) && !slices.Contains(next[len(cand)-i-1:], nb) {
				next = append(next, nb)
			}
		}
		child := make([]int, len(sub)+1)
		copy(child, sub)
		child[len(sub)] = v
		e.grow(child, next, anchor, emit)
	}
}

// qubitsWith counts the distinct qubits of sub plus gate extra.
func (e *enumerator) qubitsWith(sub []int, extra int) int {
	qs := e.qubits[:0]
	add := func(gi int) {
		for _, q := range e.c.Gates[gi].Qubits {
			if !slices.Contains(qs, q) {
				qs = append(qs, q)
			}
		}
	}
	for _, gi := range sub {
		add(gi)
	}
	add(extra)
	e.qubits = qs
	return len(qs)
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
	s.preds = append(s.preds[:0], make([]int, k)...)
	for len(s.succs) < k {
		s.succs = append(s.succs, nil)
	}
	// Induced dependence edges: consecutive set gates on each wire.
	s.wires = s.wires[:0]
	for p, gi := range set { // set sorted ascending = program order
		s.succs[p] = s.succs[p][:0]
		for _, q := range e.c.Gates[gi].Qubits {
			if i := slices.IndexFunc(s.wires, func(w wire) bool { return w.q == q }); i >= 0 {
				u := s.wires[i].last
				s.preds[p]++
				s.succs[u] = append(s.succs[u], p)
				s.wires[i].last = p
			} else {
				s.wires = append(s.wires, wire{q, p})
			}
		}
	}

	s.ready = s.ready[:0]
	for p := range set {
		if s.preds[p] == 0 {
			s.ready = append(s.ready, p)
		}
	}
	s.local = s.local[:0]
	s.out = s.out[:0]
	for len(s.ready) > 0 {
		// Deterministic choice: minimal canonical key, ties by index.
		best := 0
		s.best = e.appendKey(s.best[:0], set[s.ready[0]])
		for i := 1; i < len(s.ready); i++ {
			s.key = e.appendKey(s.key[:0], set[s.ready[i]])
			if c := bytes.Compare(s.key, s.best); c < 0 || (c == 0 && s.ready[i] < s.ready[best]) {
				best = i
				s.key, s.best = s.best, s.key
			}
		}
		p := s.ready[best]
		s.ready = append(s.ready[:best], s.ready[best+1:]...)
		gi := set[p]
		if len(s.out) > 0 {
			s.out = append(s.out, '|')
		}
		s.out = append(s.out, e.labels[gi]...)
		s.out = append(s.out, ':')
		for i, q := range e.c.Gates[gi].Qubits {
			id := slices.Index(s.local, q)
			if id < 0 {
				id = len(s.local)
				s.local = append(s.local, q)
			}
			if i > 0 {
				s.out = append(s.out, ',')
			}
			s.out = strconv.AppendInt(s.out, int64(id), 10)
		}
		for _, c := range s.succs[p] {
			s.preds[c]--
			if s.preds[c] == 0 {
				s.ready = append(s.ready, c)
			}
		}
	}
	return s.out
}

// appendKey appends gate gi's ordering key: its label and operand wires,
// "?" for a wire not yet named (compares equal across embeddings).
func (e *enumerator) appendKey(b []byte, gi int) []byte {
	b = append(b, e.labels[gi]...)
	b = append(b, ':')
	for i, q := range e.c.Gates[gi].Qubits {
		if i > 0 {
			b = append(b, ',')
		}
		if id := slices.Index(e.sig.local, q); id >= 0 {
			b = strconv.AppendInt(b, int64(id), 10)
		} else {
			b = append(b, '?')
		}
	}
	return b
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

func sortEmbeddings(embeds [][]int) {
	sort.Slice(embeds, func(i, j int) bool {
		a, b := embeds[i], embeds[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// greedyDisjoint picks a maximal prefix-greedy family of pairwise-disjoint
// embeddings.
func greedyDisjoint(embeds [][]int) [][]int {
	used := map[int]bool{}
	var out [][]int
	for _, e := range embeds {
		ok := true
		for _, gi := range e {
			if used[gi] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, gi := range e {
			used[gi] = true
		}
		out = append(out, e)
	}
	return out
}
