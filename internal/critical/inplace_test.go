package critical

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/route"
	"paqoc/internal/topology"
	"paqoc/internal/transpile"
)

// checkDAG compares the block circuit's refilled DAG with a fresh build
// over its current blocks, list for list, and checks that each list's
// capacity is its block's qubit count.
func checkDAG(t *testing.T, bc *BlockCircuit, what string) {
	t.Helper()
	sets, _ := blockSets(bc)
	want := circuit.BuildQubitDAG(bc.NumQubits, sets)
	got := bc.DAG()
	if got.NumGates != len(sets) || len(got.Preds) != len(sets) || len(got.Succs) != len(sets) {
		t.Fatalf("%s: DAG has %d nodes (%d preds, %d succs lists), want %d",
			what, got.NumGates, len(got.Preds), len(got.Succs), len(sets))
	}
	for i, qs := range sets {
		if !slices.Equal(got.Preds[i], want.Preds[i]) || !slices.Equal(got.Succs[i], want.Succs[i]) {
			t.Fatalf("%s: block %d preds %v succs %v, fresh build %v %v",
				what, i, got.Preds[i], got.Succs[i], want.Preds[i], want.Succs[i])
		}
		if cap(got.Preds[i]) != len(qs) || cap(got.Succs[i]) != len(qs) {
			t.Fatalf("%s: block %d lists have capacity %d and %d, want its %d qubits",
				what, i, cap(got.Preds[i]), cap(got.Succs[i]), len(qs))
		}
	}
}

// fuse merges the blocks made only of the given original gates pairwise,
// the way paqoc's APA replacement does, checking the DAG after each merge.
// It returns the number of merges.
func fuse(t *testing.T, bc *BlockCircuit, gates map[int]bool) int {
	t.Helper()
	merges := 0
	for {
		var members []int
		for bi, b := range bc.Blocks {
			all := len(b.Origin) > 0
			for _, o := range b.Origin {
				all = all && gates[o]
			}
			if all {
				members = append(members, bi)
			}
		}
		merged := false
	search:
		for _, i := range members {
			for _, j := range members {
				if i < j && bc.ValidMerge(i, j, 3) {
					m := Merge(bc.Blocks[i], bc.Blocks[j])
					m.APA = true
					bc.ReplaceMerge(i, j, m, 1, nil)
					checkDAG(t, bc, "after a fusion")
					merges++
					merged = true
					break search
				}
			}
		}
		if !merged {
			return merges
		}
	}
}

// TestBlockDAGMatchesBuild: the DAG the block circuit refills in place
// after every ReplaceMerge, APA-style fusion and Split equals a fresh
// build over its blocks, element for element.
func TestBlockDAGMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	moved, fusions, splits := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		c := randomCircuit(rng.Int63(), 3+rng.Intn(4), 10+rng.Intn(50))
		bc, err := FromCircuit(c, unitLatency)
		if err != nil {
			t.Fatal(err)
		}
		checkDAG(t, bc, "initial")
		for round := 0; round < 15; round++ {
			switch op := rng.Intn(6); {
			case op < 4:
				cands := bc.Candidates(3, false)
				if len(cands) == 0 {
					continue
				}
				cand := cands[rng.Intn(len(cands))]
				m := Merge(bc.Blocks[cand.I], bc.Blocks[cand.J])
				bc.CPIfMerged(cand.I, cand.J, 1)
				bc.ReplaceMerge(cand.I, cand.J, m, 1, nil)
				if slices.Index(bc.Blocks, m) < cand.J-1 {
					moved++
				}
				checkDAG(t, bc, "after ReplaceMerge")
			case op == 4:
				// Fuse a block with a successor and that successor's
				// successor, tracked by their original gate indices.
				a := rng.Intn(len(bc.Blocks))
				gates := map[int]bool{}
				for k, v := 0, a; k < 3; k++ {
					for _, o := range bc.Blocks[v].Origin {
						gates[o] = true
					}
					succs := bc.DAG().Succs[v]
					if len(succs) == 0 {
						break
					}
					v = succs[rng.Intn(len(succs))]
				}
				fusions += fuse(t, bc, gates)
			default:
				var multi []int
				for i, b := range bc.Blocks {
					if len(b.Gates) > 1 {
						multi = append(multi, i)
					}
				}
				if len(multi) == 0 {
					continue
				}
				bc.Split(multi[rng.Intn(len(multi))])
				splits++
				checkDAG(t, bc, "after Split")
			}
		}
	}
	if moved < 10 || fusions < 10 || splits < 10 {
		t.Fatalf("weak coverage: %d merges moved window blocks, %d fusions, %d splits", moved, fusions, splits)
	}
}

// checkResume runs up to rounds pre-passes to their fixed point, with one
// ordinary merge (pick's) between them as an optimize round applies, and
// checks at every step that a scan resumed at PreprocessResume returns
// exactly the pair a scan from block 0 returns. It returns the number of
// pre-merges, and how many of them resumed below the merged pair.
func checkResume(t *testing.T, name string, bc *BlockCircuit, rounds int, pick func([]Candidate) Candidate) (steps, below int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		start := 0
		for {
			full, okFull := bc.PreprocessMerge(3, 0)
			resumed, ok := bc.PreprocessMerge(3, start)
			if full != resumed || okFull != ok {
				t.Fatalf("%s round %d step %d: scan from %d found %+v %v, scan from 0 %+v %v",
					name, round, steps, start, resumed, ok, full, okFull)
			}
			if !ok || !bc.ValidMerge(full.I, full.J, 3) {
				break
			}
			if start = bc.PreprocessResume(full.I, full.J); start < full.I {
				below++
			}
			bc.ReplaceMerge(full.I, full.J, Merge(bc.Blocks[full.I], bc.Blocks[full.J]), 1, nil)
			steps++
		}
		cands := bc.Candidates(3, false)
		if len(cands) == 0 {
			break
		}
		cand := pick(cands)
		bc.ReplaceMerge(cand.I, cand.J, Merge(bc.Blocks[cand.I], bc.Blocks[cand.J]), 1, nil)
	}
	return steps, below
}

// TestPreprocessResumeMatchesFullScan: on every routed Table I circuit, and
// on random circuits with three-qubit gates, each step of the pre-pass
// resumed at PreprocessResume finds the pair a scan from block 0 finds.
func TestPreprocessResumeMatchesFullScan(t *testing.T) {
	topo := topology.Grid(5, 5)
	middle := func(cands []Candidate) Candidate { return cands[len(cands)/2] }
	below := 0
	for _, spec := range bench.All() {
		phys, _, err := transpile.ToPhysical(spec.Build(), topo, route.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		bc, err := FromCircuit(phys, unitLatency)
		if err != nil {
			t.Fatal(err)
		}
		steps, b := checkResume(t, spec.Name, bc, 40, middle)
		if steps == 0 {
			t.Errorf("%s: the pre-pass merged nothing", spec.Name)
		}
		below += b
	}
	rng := rand.New(rand.NewSource(31))
	randomPick := func(cands []Candidate) Candidate { return cands[rng.Intn(len(cands))] }
	for trial := 0; trial < 200; trial++ {
		nq := 4 + rng.Intn(3)
		c := randomCircuit(rng.Int63(), nq, 20+rng.Intn(30))
		for k := rng.Intn(4); k > 0; k-- {
			qs := rng.Perm(nq)[:3]
			c.Add("ccx", qs...)
		}
		bc, err := FromCircuit(c, unitLatency)
		if err != nil {
			t.Fatal(err)
		}
		_, b := checkResume(t, "random", bc, 10, randomPick)
		below += b
	}
	t.Logf("%d pre-merges resumed below the merged pair", below)
	if below < 10 {
		t.Fatalf("weak coverage: only %d pre-merges resumed below the merged pair", below)
	}
}

// TestMergeLoopAllocatesNothingOnceWarm: after one pass of each, the merge
// loop's per-step operations allocate nothing. ReplaceMerge is measured
// with its merged block built beforehand, as its caller builds it.
func TestMergeLoopAllocatesNothingOnceWarm(t *testing.T) {
	c := randomCircuit(11, 10, 400)
	bc, err := FromCircuit(c, unitLatency)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for i, succs := range bc.DAG().Succs {
		for _, j := range succs {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	// allocs runs f once to warm it, then counts the allocations of one
	// more call exactly.
	allocs := func(name string, f func()) {
		t.Helper()
		for k := 0; k < 5; k++ {
			if n := testing.AllocsPerRun(1, f); n != 0 {
				t.Fatalf("%s allocates %v times per call once warm", name, n)
			}
		}
	}
	allocs("ValidMerge", func() {
		for _, p := range pairs {
			bc.ValidMerge(p[0], p[1], 3)
		}
	})
	allocs("CPIfMerged", func() {
		for _, p := range pairs {
			bc.CPIfMerged(p[0], p[1], 1.5)
		}
	})
	allocs("PreprocessMerge", func() { bc.PreprocessMerge(3, 0) })

	pool := make([]Block, 64)
	for k := range pool {
		pool[k].Qubits = make([]int, 0, 6)
	}
	next, moved := 0, 0
	allocs("ReplaceMerge and the DAG refill", func() {
		// The first valid pair with a window between its blocks, else the
		// first valid pair.
		i, j := -1, -1
		for a, succs := range bc.DAG().Succs {
			for _, b := range succs {
				if (i < 0 || j == i+1 && b > a+1) && bc.ValidMerge(a, b, 3) {
					i, j = a, b
				}
			}
		}
		if i < 0 {
			t.Fatal("no valid merge left")
		}
		m := &pool[next]
		next++
		m.Qubits = append(m.Qubits[:0], bc.Blocks[i].Qubits...)
		for _, q := range bc.Blocks[j].Qubits {
			if !slices.Contains(m.Qubits, q) {
				m.Qubits = append(m.Qubits, q)
			}
		}
		if j > i+1 {
			moved++
		}
		bc.ReplaceMerge(i, j, m, 1, nil)
		bc.DAG()
	})
	if moved == 0 {
		t.Error("no measured merge had a window")
	}
	checkDAG(t, bc, "after the measured merges")
}

// TestIndirectPathStampWrap: when the visited stamp wraps, the buffer is
// cleared, so marks from an old generation cannot hide a path.
func TestIndirectPathStampWrap(t *testing.T) {
	bc := fromGates(t, 2, func(c *circuit.Circuit) {
		c.Add("cx", 0, 1) // 0
		c.Add("h", 0)     // 1: depends on 0
		c.Add("h", 0)     // 2: depends on 1
		c.Add("cx", 0, 1) // 3: depends on 2 and 0
	})
	if bc.ValidMerge(0, 3, 3) {
		t.Fatal("the indirect path 0→1→2→3 must make (0,3) invalid")
	}
	for k := range bc.seen {
		bc.seen[k] = 1
	}
	bc.stamp = math.MaxUint32
	if bc.ValidMerge(0, 3, 3) {
		t.Error("after the stamp wrapped, stale marks hid the indirect path")
	}
	if bc.stamp != 1 {
		t.Errorf("stamp after the wrap = %d, want 1", bc.stamp)
	}
}

// TestReleaseDAGDropsScratch: ReleaseDAG leaves no DAG storage, scratch
// buffer or *Block reachable from the block circuit other than its blocks
// (the slots merges free are nil), Clone shares no scratch, and a released
// circuit rebuilds on demand.
func TestReleaseDAGDropsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bc := randomBlocks(t, rng)
	for round := 0; round < 4; round++ {
		cands := bc.Candidates(3, false)
		if len(cands) == 0 {
			break
		}
		cand := cands[rng.Intn(len(cands))]
		bc.CPIfMerged(cand.I, cand.J, 2)
		bc.ReplaceMerge(cand.I, cand.J, Merge(bc.Blocks[cand.I], bc.Blocks[cand.J]), 2, nil)
	}
	bc.PreprocessMerge(3, 0)
	onlyBlocks := func(what string, x *BlockCircuit) {
		t.Helper()
		v := reflect.ValueOf(x).Elem()
		for k := 0; k < v.NumField(); k++ {
			if name := v.Type().Field(k).Name; name != "NumQubits" && name != "Blocks" && !v.Field(k).IsZero() {
				t.Errorf("%s: field %s still set", what, name)
			}
		}
	}
	onlyBlocks("Clone", bc.Clone())
	for k, b := range bc.Blocks[len(bc.Blocks):cap(bc.Blocks)] {
		if b != nil {
			t.Errorf("freed slot %d past the last block still holds a block", k)
		}
	}
	want := bc.CriticalPath()
	bc.ReleaseDAG()
	onlyBlocks("after ReleaseDAG", bc)
	checkDAG(t, bc, "after ReleaseDAG")
	if got := bc.CriticalPath(); got != want {
		t.Errorf("critical path after ReleaseDAG = %v, want %v", got, want)
	}
}
