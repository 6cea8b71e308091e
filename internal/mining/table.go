package mining

import (
	"context"
	"fmt"
	"sort"

	"paqoc/internal/circuit"
)

// CorpusPattern is one recurring subcircuit aggregated across a corpus of
// circuits: the cross-request view the offline miner (internal/miner)
// ranks for pre-generation. Support sums each circuit's greedy-disjoint
// occurrence count, so a pattern appearing once in each of three requests
// has Support 3 — cross-request frequency counts even when no single
// circuit would reach MinSupport on its own.
type CorpusPattern struct {
	Signature  string
	GateCount  int
	QubitCount int
	// Support is the total number of disjoint occurrences across the
	// corpus (the sum of per-circuit greedy-disjoint counts).
	Support int
	// Circuits is how many distinct corpus circuits contain the pattern.
	Circuits int
	// Rep is a representative realization on local wires 0..QubitCount-1
	// (the first sorted embedding of the lowest-id live circuit containing
	// the pattern), suitable for pulse.NewCustomGate. Every embedding of
	// the signature realizes the same unitary up to a local-wire
	// permutation, which the pulse DB's permuted-key lookup absorbs.
	Rep []circuit.Gate
}

// Coverage is the number of corpus gates covered by disjoint embeddings —
// the cross-request ranking key.
func (p *CorpusPattern) Coverage() int { return p.Support * p.GateCount }

// sigStat is one circuit's contribution to a signature: the per-circuit
// facts Fold records so Evict can subtract them exactly.
type sigStat struct {
	gateCount  int
	qubitCount int
	support    int // greedy-disjoint occurrences within this circuit (>= 1)
	rep        []circuit.Gate
}

// mineStats enumerates one circuit and reduces it to per-signature stats
// with no MinSupport filtering: every signature keeps its disjoint count
// (>= 1), because a pattern rare in one circuit may be frequent across the
// corpus. opts must already be validated and filled.
func mineStats(ctx context.Context, c *circuit.Circuit, opts Options) map[string]sigStat {
	bySig := enumerateBySig(ctx, c, opts)
	out := make(map[string]sigStat, len(bySig))
	for sig, l := range bySig {
		delete(bySig, sig) // release each slab once read
		embeds := l.sorted()
		disjoint := greedyDisjoint(embeds)
		out[sig] = sigStat{
			gateCount:  len(embeds[0]),
			qubitCount: countQubits(c, embeds[0]),
			support:    len(disjoint),
			rep:        localGates(c, embeds[0]),
		}
	}
	return out
}

func countQubits(c *circuit.Circuit, embed []int) int {
	qs := map[int]bool{}
	for _, gi := range embed {
		for _, q := range c.Gates[gi].Qubits {
			qs[q] = true
		}
	}
	return len(qs)
}

// localGates extracts an embedding's gates re-indexed onto local wires
// 0..k-1 in sorted-physical-qubit order — the same renumbering
// pulse.NewCustomGate applies, so a CustomGate built from the result keys
// the pulse DB identically to an APA block built from the embedding.
func localGates(c *circuit.Circuit, embed []int) []circuit.Gate {
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
	for i, gi := range embed { // embed is sorted ascending = program order
		g := c.Gates[gi].Clone()
		for j, q := range g.Qubits {
			g.Qubits[j] = idx[q]
		}
		out[i] = g
	}
	return out
}

// Table maintains cross-circuit frequent-subcircuit statistics
// incrementally: Fold adds one circuit's per-signature contributions,
// Evict subtracts them again when the corpus bound retires the circuit,
// and Patterns reduces the live aggregate. Folding a stream of circuits
// produces exactly the table batch MineCorpus computes over the same live
// set (pinned by TestTableMatchesBatch) — the add/subtract bookkeeping is
// lossless because every per-circuit contribution is retained.
//
// A Table is not safe for concurrent use; the owning service serializes
// access (internal/miner folds from a single goroutine).
type Table struct {
	opts Options
	// perCircuit retains each live circuit's full contribution, keyed by
	// the caller-assigned circuit id.
	perCircuit map[int]map[string]sigStat
	// agg is the running cross-circuit sum per signature.
	agg map[string]*aggStat
}

type aggStat struct {
	gateCount  int
	qubitCount int
	support    int
	circuits   int
}

// NewTable builds an empty incremental pattern table. Invalid options are
// an error (Options.Validate); zero fields select the defaults.
func NewTable(opts Options) (*Table, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	return &Table{
		opts:       opts,
		perCircuit: map[int]map[string]sigStat{},
		agg:        map[string]*aggStat{},
	}, nil
}

// Circuits returns the number of live (folded, not evicted) circuits.
func (t *Table) Circuits() int { return len(t.perCircuit) }

// Fold mines one circuit and adds its contributions to the table. id is
// the caller's handle for a later Evict; folding an id twice is an error
// (evict it first).
func (t *Table) Fold(ctx context.Context, id int, c *circuit.Circuit) error {
	if _, ok := t.perCircuit[id]; ok {
		return fmt.Errorf("mining: circuit %d already folded", id)
	}
	stats := mineStats(ctx, c, t.opts)
	t.perCircuit[id] = stats
	for sig, st := range stats {
		a := t.agg[sig]
		if a == nil {
			a = &aggStat{gateCount: st.gateCount, qubitCount: st.qubitCount}
			t.agg[sig] = a
		}
		a.support += st.support
		a.circuits++
	}
	return nil
}

// Evict removes a previously folded circuit's contributions. Unknown ids
// are a no-op, so callers can evict unconditionally.
func (t *Table) Evict(id int) {
	stats, ok := t.perCircuit[id]
	if !ok {
		return
	}
	delete(t.perCircuit, id)
	for sig, st := range stats {
		a := t.agg[sig]
		a.support -= st.support
		a.circuits--
		if a.circuits == 0 {
			delete(t.agg, sig)
		}
	}
}

// Patterns reduces the live aggregate: signatures whose total cross-
// circuit Support reaches MinSupport, sorted by Coverage descending with
// the signature as the deterministic tie-break. Each pattern's Rep comes
// from the lowest-id live circuit containing it, so the choice is
// independent of fold/evict order.
func (t *Table) Patterns() []CorpusPattern {
	// Lowest live id per signature, for deterministic representatives.
	minID := make(map[string]int, len(t.agg))
	for id, stats := range t.perCircuit {
		for sig := range stats {
			if cur, ok := minID[sig]; !ok || id < cur {
				minID[sig] = id
			}
		}
	}
	out := make([]CorpusPattern, 0, len(t.agg))
	for sig, a := range t.agg {
		if a.support < t.opts.MinSupport {
			continue
		}
		out = append(out, CorpusPattern{
			Signature:  sig,
			GateCount:  a.gateCount,
			QubitCount: a.qubitCount,
			Support:    a.support,
			Circuits:   a.circuits,
			Rep:        t.perCircuit[minID[sig]][sig].rep,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Coverage() != out[j].Coverage() {
			return out[i].Coverage() > out[j].Coverage()
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// MineCorpus batch-mines a corpus: every circuit is enumerated from
// scratch and the per-signature stats are summed in one pass. It is the
// reference the incremental Table is pinned against — Fold/Evict sequences
// ending in the same live set must reproduce this output exactly. Circuit
// ids are the slice indices (for Rep determinism).
func MineCorpus(ctx context.Context, circuits []*circuit.Circuit, opts Options) ([]CorpusPattern, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	agg := map[string]*aggStat{}
	rep := map[string][]circuit.Gate{}
	for _, c := range circuits { // ascending index = ascending id
		for sig, st := range mineStats(ctx, c, opts) {
			a := agg[sig]
			if a == nil {
				a = &aggStat{gateCount: st.gateCount, qubitCount: st.qubitCount}
				agg[sig] = a
				rep[sig] = st.rep // first circuit containing it = lowest id
			}
			a.support += st.support
			a.circuits++
		}
	}
	out := make([]CorpusPattern, 0, len(agg))
	for sig, a := range agg {
		if a.support < opts.MinSupport {
			continue
		}
		out = append(out, CorpusPattern{
			Signature:  sig,
			GateCount:  a.gateCount,
			QubitCount: a.qubitCount,
			Support:    a.support,
			Circuits:   a.circuits,
			Rep:        rep[sig],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Coverage() != out[j].Coverage() {
			return out[i].Coverage() > out[j].Coverage()
		}
		return out[i].Signature < out[j].Signature
	})
	return out, nil
}
