package mining

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/obs"
)

// This file keeps the miner as it was before the enumeration buffers, the
// interned signatures, the counted disjoint families and the convexity
// memo: a map from signature to a growing slab per signature, a fresh set
// and candidate slice per extension, a map per disjoint family and a mark
// array per convexity check. TestMineMatchesReference and
// FuzzMineMatchesReference pin the miner to it bit for bit.

// refMineCtx is the reference MineCtx.
func refMineCtx(ctx context.Context, c *circuit.Circuit, opts Options) ([]Pattern, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	reg := obs.MetricsFrom(ctx)
	bySig := refEnumerateBySig(ctx, c, opts)

	n := 0
	for _, l := range bySig {
		if l.count() >= opts.MinSupport {
			n++
		}
	}
	out := make([]Pattern, 0, n)
	for sig, l := range bySig {
		delete(bySig, sig)
		if l.count() < opts.MinSupport {
			continue
		}
		embeds := l.sorted()
		disjoint := refGreedyDisjoint(embeds)
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

// refMineStats is the reference mineStats.
func refMineStats(ctx context.Context, c *circuit.Circuit, opts Options) map[string]sigStat {
	bySig := refEnumerateBySig(ctx, c, opts)
	out := make(map[string]sigStat, len(bySig))
	for sig, l := range bySig {
		delete(bySig, sig)
		embeds := l.sorted()
		disjoint := refGreedyDisjoint(embeds)
		out[sig] = sigStat{
			gateCount:  len(embeds[0]),
			qubitCount: refCountQubits(c, embeds[0]),
			support:    len(disjoint),
			rep:        refLocalGates(c, embeds[0]),
		}
	}
	return out
}

func refCountQubits(c *circuit.Circuit, embed []int) int {
	qs := map[int]bool{}
	for _, gi := range embed {
		for _, q := range c.Gates[gi].Qubits {
			qs[q] = true
		}
	}
	return len(qs)
}

func refLocalGates(c *circuit.Circuit, embed []int) []circuit.Gate {
	qset := map[int]bool{}
	for _, gi := range embed {
		for _, q := range c.Gates[gi].Qubits {
			qset[q] = true
		}
	}
	qs := make([]int, 0, len(qset))
	for q := range qset {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	idx := make(map[int]int, len(qs))
	for i, q := range qs {
		idx[q] = i
	}
	out := make([]circuit.Gate, len(embed))
	for i, gi := range embed {
		g := c.Gates[gi].Clone()
		for j, q := range g.Qubits {
			g.Qubits[j] = idx[q]
		}
		out[i] = g
	}
	return out
}

func refEnumerateBySig(ctx context.Context, c *circuit.Circuit, opts Options) map[string]*refEmbedList {
	reg := obs.MetricsFrom(ctx)
	enum := newRefEnumerator(c, opts)
	enum.enumerated = reg.Counter("mining.subcircuits_enumerated")
	enum.pruned = reg.Counter("mining.pruned_qubit_cap")

	_, span := obs.StartSpan(ctx, "mining.enumerate")
	bySig := make(map[string]*refEmbedList)
	enum.run(func(set []int) {
		sig := enum.signature(set)
		l := bySig[string(sig)]
		if l == nil {
			l = &refEmbedList{stride: len(set)}
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

type refEmbedList struct {
	stride int
	flat   []int32
}

func (l *refEmbedList) count() int { return len(l.flat) / l.stride }

func (l *refEmbedList) sorted() [][]int {
	backing := make([]int, len(l.flat))
	for i, gi := range l.flat {
		backing[i] = int(gi)
	}
	out := make([][]int, l.count())
	for k := range out {
		out[k] = backing[k*l.stride : (k+1)*l.stride : (k+1)*l.stride]
	}
	refSortEmbeddings(out)
	return out
}

type refEnumerator struct {
	c        *circuit.Circuit
	opts     Options
	adj      [][]int
	labels   []string
	budget   int
	overflow bool
	emitBuf  []int
	qubits   []int
	sig      refSigScratch

	enumerated *obs.Counter
	pruned     *obs.Counter
}

func newRefEnumerator(c *circuit.Circuit, opts Options) *refEnumerator {
	dag := circuit.BuildDAG(c)
	adj := make([][]int, len(c.Gates))
	labels := make([]string, len(c.Gates))
	for i := range adj {
		adj[i] = append(append([]int(nil), dag.Preds[i]...), dag.Succs[i]...)
		sort.Ints(adj[i])
		labels[i] = c.Gates[i].Label()
	}
	return &refEnumerator{c: c, opts: opts, adj: adj, labels: labels, budget: opts.EnumLimit}
}

func (e *refEnumerator) run(emit func([]int)) {
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

func (e *refEnumerator) grow(sub, cand []int, anchor int, emit func([]int)) {
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
		next := append([]int(nil), cand[i+1:]...)
		for _, nb := range e.adj[v] {
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

func (e *refEnumerator) qubitsWith(sub []int, extra int) int {
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

func (e *refEnumerator) signature(set []int) []byte {
	s := &e.sig
	k := len(set)
	s.preds = append(s.preds[:0], make([]int, k)...)
	for len(s.succs) < k {
		s.succs = append(s.succs, nil)
	}
	s.wires = s.wires[:0]
	for p, gi := range set {
		s.succs[p] = s.succs[p][:0]
		for _, q := range e.c.Gates[gi].Qubits {
			if i := slices.IndexFunc(s.wires, func(w refWire) bool { return w.q == q }); i >= 0 {
				u := s.wires[i].last
				s.preds[p]++
				s.succs[u] = append(s.succs[u], p)
				s.wires[i].last = p
			} else {
				s.wires = append(s.wires, refWire{q, p})
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

func (e *refEnumerator) appendKey(b []byte, gi int) []byte {
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

type refWire struct{ q, last int }

type refSigScratch struct {
	preds     []int
	succs     [][]int
	wires     []refWire
	local     []int
	ready     []int
	key, best []byte
	out       []byte
}

func refSortEmbeddings(embeds [][]int) {
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

func refGreedyDisjoint(embeds [][]int) [][]int {
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

// refSelect is the reference Select.
func refSelect(c *circuit.Circuit, patterns []Pattern, m int, minSupport int) []Selection {
	if m == 0 {
		return nil
	}
	if minSupport <= 0 {
		minSupport = 2
	}
	dag := circuit.BuildDAG(c)
	covered := make([]bool, len(c.Gates))
	var out []Selection

	used := make([]bool, len(c.Gates))
	var chosen, bestChosen [][]int
	remaining := append([]Pattern(nil), patterns...)
	for m < 0 || len(out) < m {
		bestIdx := -1
		bestGain := 0
		for pi, p := range remaining {
			chosen = refCommitEmbeddings(dag, p.Embeddings, covered, used, chosen[:0])
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

// refTunedM is the reference TunedM.
func refTunedM(c *circuit.Circuit, patterns []Pattern, minSupport int) int {
	full := refSelect(c, patterns, -1, minSupport)
	covered := 0
	for mIdx, sel := range full {
		covered += sel.CoveredGates()
		if 2*covered > len(c.Gates) {
			return mIdx + 1
		}
	}
	return len(full)
}

func refCommitEmbeddings(dag *circuit.DAG, embeds [][]int, covered, used []bool, out [][]int) [][]int {
	for _, emb := range embeds {
		ok := true
		for _, gi := range emb {
			if covered[gi] || used[gi] {
				ok = false
				break
			}
		}
		if !ok || !refConvex(dag, emb) {
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

// refConvex is the reference convexity check.
func refConvex(dag *circuit.DAG, emb []int) bool {
	if len(emb) == 0 {
		return true
	}
	lo, hi := emb[0], emb[len(emb)-1]
	const inSet, tainted = 1, 2
	mark := make([]byte, hi-lo+1)
	for _, gi := range emb {
		mark[gi-lo] = inSet
	}
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

// addSymbolic appends a few parameterized gates with shared symbols, so
// the signatures of symbolic labels are pinned too.
func addSymbolic(rng *rand.Rand, c *circuit.Circuit) {
	syms := []string{"theta", "phi"}
	for i := rng.Intn(6); i > 0; i-- {
		a := rng.Intn(c.NumQubits)
		b := (a + 1 + rng.Intn(c.NumQubits-1)) % c.NumQubits
		c.Add("cx", a, b)
		c.AddSymbolic("rz", syms[rng.Intn(len(syms))], b)
	}
}

// matchReference runs the miner and the reference on one input under one
// set of options and fails on any difference: patterns, selections, the
// tuned prefix, per-signature stats and the miner's counters.
func matchReference(t *testing.T, c *circuit.Circuit, opts Options) (overflowed bool) {
	t.Helper()
	reg, refReg := obs.NewRegistry(), obs.NewRegistry()
	ctx, refCtx := obs.WithMetrics(context.Background(), reg), obs.WithMetrics(context.Background(), refReg)
	got, err := MineCtx(ctx, c, opts)
	want, refErr := refMineCtx(refCtx, c, opts)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%+v: MineCtx error %v, reference %v", opts, err, refErr)
	}
	if err != nil {
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: MineCtx differs from the reference:\n got %+v\nwant %+v\ncircuit:\n%s", opts, got, want, c)
	}
	full := Select(c, got, -1, opts.MinSupport)
	for _, m := range []int{-1, 0, 3} {
		sel := Select(c, got, m, opts.MinSupport)
		if ref := refSelect(c, want, m, opts.MinSupport); !reflect.DeepEqual(sel, ref) {
			t.Fatalf("%+v: Select(%d) differs from the reference:\n got %+v\nwant %+v", opts, m, sel, ref)
		}
		if m > 0 && !reflect.DeepEqual(sel, full[:min(m, len(full))]) {
			t.Fatalf("%+v: Select(%d) is not a prefix of Select(-1)", opts, m)
		}
	}
	tuned := refTunedM(c, want, opts.MinSupport)
	if m := TunedM(c, got, opts.MinSupport); m != tuned {
		t.Fatalf("%+v: TunedM = %d, reference %d", opts, m, tuned)
	}
	if sel, ref := SelectTuned(c, got, opts.MinSupport), refSelect(c, want, tuned, opts.MinSupport); !reflect.DeepEqual(sel, ref) {
		t.Fatalf("%+v: SelectTuned differs from the reference's Select(TunedM = %d):\n got %+v\nwant %+v", opts, tuned, sel, ref)
	}
	filled := opts
	filled.fill()
	if st, ref := mineStats(ctx, c, filled), refMineStats(refCtx, c, filled); !reflect.DeepEqual(st, ref) {
		t.Fatalf("%+v: mineStats differs from the reference:\n got %+v\nwant %+v", opts, st, ref)
	}
	for _, name := range []string{"mining.subcircuits_enumerated", "mining.pruned_qubit_cap", "mining.enum_overflows", "mining.patterns"} {
		if g, w := reg.Counter(name).Value(), refReg.Counter(name).Value(); g != w {
			t.Fatalf("%+v: counter %s = %d, reference %d", opts, name, g, w)
		}
	}
	return reg.Counter("mining.enum_overflows").Value() > 0
}

// TestMineMatchesReference pins the miner to the reference on 200 seeded
// random circuits with symbolic gates, under varied caps and supports and
// enumeration budgets small enough to overflow.
func TestMineMatchesReference(t *testing.T) {
	overflows := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := buildRandomCircuit(rng)
		addSymbolic(rng, c)
		opts := Options{MaxGates: 2 + rng.Intn(5), MaxQubits: 1 + rng.Intn(4), MinSupport: 1 + rng.Intn(3)}
		if seed%4 == 0 {
			opts.EnumLimit = 1 + rng.Intn(80)
		}
		if matchReference(t, c, opts) {
			overflows++
		}
	}
	if overflows == 0 {
		t.Error("no input overflowed its enumeration budget")
	}
}

// FuzzMineMatchesReference pins the miner to the reference on circuit
// text of at most 64 gates on at most 8 qubits, with options drawn from
// the fuzz bytes.
func FuzzMineMatchesReference(f *testing.F) {
	f.Add(swapChain(4).String(), uint8(4), uint8(1), uint8(1), uint16(0))
	for _, name := range []string{"bb84", "simon"} {
		spec, ok := bench.ByName(name)
		if !ok {
			f.Fatalf("no benchmark %s", name)
		}
		f.Add(spec.Build().String(), uint8(4), uint8(2), uint8(1), uint16(0))
	}
	f.Add("qubits 3\nrz(theta) 0\ncx 0 1\nrz(theta) 1\ncx 1 2\nrz(theta) 2\ncx 0 1\nrz(phi) 1\n", uint8(2), uint8(1), uint8(0), uint16(7))
	f.Fuzz(func(t *testing.T, text string, maxGates, maxQubits, minSupport uint8, enumLimit uint16) {
		c, err := circuit.Parse(text)
		if err != nil || len(c.Gates) > 64 || c.NumQubits > 8 {
			return
		}
		matchReference(t, c, Options{
			MaxGates:   2 + int(maxGates%5),
			MaxQubits:  1 + int(maxQubits%4),
			MinSupport: 1 + int(minSupport%3),
			EnumLimit:  int(enumLimit),
		})
	})
}
