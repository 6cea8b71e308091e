package paqoc

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"paqoc/internal/circuit"
	"paqoc/internal/linalg"
	"paqoc/internal/mining"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/topology"
)

// swapHeavy builds a bv-like circuit: long CX chains with SWAP idioms.
func swapHeavy(nq, reps int) *circuit.Circuit {
	c := circuit.New(nq)
	for r := 0; r < reps; r++ {
		for i := 0; i+1 < nq; i++ {
			c.Add("cx", i, i+1)
			c.Add("cx", i+1, i)
			c.Add("cx", i, i+1)
		}
	}
	return c
}

func compile(t *testing.T, c *circuit.Circuit, cfg Config) *Result {
	t.Helper()
	comp := New(nil, topology.Line(c.NumQubits), cfg)
	res, err := comp.CompileCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCompileReducesLatency(t *testing.T) {
	c := swapHeavy(4, 3)
	res := compile(t, c, DefaultConfig())
	if res.Latency >= res.InitialLatency {
		t.Errorf("no improvement: %.1f vs initial %.1f", res.Latency, res.InitialLatency)
	}
	// SWAP idioms should shrink dramatically: expect well under 60%.
	if res.Latency > 0.6*res.InitialLatency {
		t.Errorf("latency %.1f > 60%% of initial %.1f", res.Latency, res.InitialLatency)
	}
	if res.NumBlocks >= len(c.Gates) {
		t.Error("no gates were merged")
	}
}

func TestCompilePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := []string{"h", "t", "s", "x"}
	for trial := 0; trial < 5; trial++ {
		c := circuit.New(3)
		for i := 0; i < 15; i++ {
			if rng.Intn(2) == 0 {
				c.Add(names[rng.Intn(len(names))], rng.Intn(3))
			} else {
				a, b := rng.Intn(3), rng.Intn(3)
				for b == a {
					b = rng.Intn(3)
				}
				c.Add("cx", a, b)
			}
		}
		want, err := c.Unitary(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.M = MInf
		res := compile(t, c, cfg)
		got, err := res.Blocks.Flatten().Unitary(4)
		if err != nil {
			t.Fatal(err)
		}
		if linalg.GlobalPhaseDistance(want, got) > 1e-8 {
			t.Fatalf("trial %d: compilation changed the circuit unitary", trial)
		}
	}
}

func TestAPAReducesCompileCost(t *testing.T) {
	// Fig. 11's shape: with recurring patterns, paqoc(M=inf) compiles
	// cheaper than paqoc(M=0); Fig. 10's shape: M=0 achieves latency at
	// least as good as M=inf.
	c := swapHeavy(5, 4)

	m0 := compile(t, c, DefaultConfig())
	cfgInf := DefaultConfig()
	cfgInf.M = MInf
	mInf := compile(t, c, cfgInf)

	if mInf.CompileCost > m0.CompileCost {
		t.Errorf("M=inf cost %.3f should not exceed M=0 cost %.3f", mInf.CompileCost, m0.CompileCost)
	}
	if m0.Latency > mInf.Latency*1.05 {
		t.Errorf("M=0 latency %.1f should be ≤ M=inf latency %.1f (small tolerance)", m0.Latency, mInf.Latency)
	}
	if len(mInf.APASelections) == 0 {
		t.Error("M=inf found no APA gates on a recurring circuit")
	}
	if len(m0.APASelections) != 0 {
		t.Error("M=0 must not select APA gates")
	}
}

func TestTunedMBetweenExtremes(t *testing.T) {
	c := swapHeavy(5, 4)
	patterns, err := mining.MineCtx(context.Background(), c, mining.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := mining.TunedM(c, patterns, 2)
	if m <= 0 {
		t.Skip("no tuned M on this circuit")
	}
	cfg := DefaultConfig()
	cfg.M = m
	tuned := compile(t, c, cfg)

	cfgInf := DefaultConfig()
	cfgInf.M = MInf
	inf := compile(t, c, cfgInf)
	m0 := compile(t, c, DefaultConfig())

	// Tuned sits between the extremes on compile cost (within tolerance).
	if tuned.CompileCost > m0.CompileCost*1.1 {
		t.Errorf("tuned cost %.3f should be ≤ M=0 cost %.3f", tuned.CompileCost, m0.CompileCost)
	}
	if tuned.Latency > inf.Latency*1.3 {
		t.Errorf("tuned latency %.1f way above M=inf %.1f", tuned.Latency, inf.Latency)
	}
}

// TestMTunedResolvesInsideCompile: MTuned compiles exactly as passing the
// M that mining.TunedM picks on the compiler's own patterns, and selects
// that many APA-basis gates.
func TestMTunedResolvesInsideCompile(t *testing.T) {
	c := swapHeavy(5, 4)
	patterns, err := mining.MineCtx(context.Background(), c, mining.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := mining.TunedM(c, patterns, 2)
	if m <= 0 {
		t.Fatalf("tuned M = %d on a recurring circuit", m)
	}
	cfg := DefaultConfig()
	cfg.M = m
	want := compile(t, c, cfg)
	cfg.M = MTuned
	got := compile(t, c, cfg)
	if len(got.APASelections) != m {
		t.Errorf("MTuned selected %d APA-basis gates, want tuned M = %d", len(got.APASelections), m)
	}
	if got.Latency != want.Latency || got.ESP != want.ESP || got.NumBlocks != want.NumBlocks {
		t.Errorf("MTuned compile (%v, %v, %d) differs from M=%d (%v, %v, %d)",
			got.Latency, got.ESP, got.NumBlocks, m, want.Latency, want.ESP, want.NumBlocks)
	}
}

// TestRankingTouchesNoPulseDB: the search ranks on the bare analytical
// estimate, so the ranker has no pulse database, and an analytical
// compile's only pulse-DB operations are emission's, one per block.
func TestRankingTouchesNoPulseDB(t *testing.T) {
	c := swapHeavy(4, 3)
	cfg := DefaultConfig()
	cfg.M = MInf
	comp := New(nil, topology.Line(c.NumQubits), cfg)
	if comp.Ranker.DB != nil {
		t.Fatal("the ranker has a pulse database")
	}
	reg := obs.NewRegistry()
	// Wiring metrics into every DB a compiler holds tolerates the
	// ranker's absent one.
	comp.Ranker.DB.SetMetrics(reg)
	res, err := comp.CompileCtx(obs.WithMetrics(context.Background(), reg), c)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := comp.Gen.(pulse.DBProvider).PulseDB().Stats()
	if hits+misses != res.NumBlocks {
		t.Errorf("pulse-DB operations = %d (%d hits, %d misses), want one per block = %d",
			hits+misses, hits, misses, res.NumBlocks)
	}
	if probes := reg.Counter("latency.model.probes").Value(); probes <= int64(res.NumBlocks) {
		t.Errorf("latency.model.probes = %d, want ranking probes beyond the %d emissions", probes, res.NumBlocks)
	}
}

func TestMonotonicLatencyContract(t *testing.T) {
	// Algorithm 1's contract: every accepted merge decreases the critical
	// path, so the final latency never exceeds the initial one (with
	// model-based generation, final == search estimates).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		c := circuit.New(5)
		for i := 0; i < 40; i++ {
			if rng.Intn(3) == 0 {
				c.Add("h", rng.Intn(5))
			} else {
				a, b := rng.Intn(5), rng.Intn(5)
				for b == a {
					b = rng.Intn(5)
				}
				c.Add("cx", a, b)
			}
		}
		res := compile(t, c, DefaultConfig())
		if res.Latency > res.InitialLatency+1e-6 {
			t.Fatalf("trial %d: latency grew %.2f → %.2f", trial, res.InitialLatency, res.Latency)
		}
	}
}

func TestESPInRange(t *testing.T) {
	res := compile(t, swapHeavy(4, 2), DefaultConfig())
	if res.ESP <= 0 || res.ESP > 1 {
		t.Errorf("ESP = %g out of range", res.ESP)
	}
	// Fewer customized gates than original gates → ESP above the fixed
	// per-gate floor (1-ε)^len(gates).
	if res.NumBlocks >= 18 {
		t.Errorf("blocks = %d, expected heavy merging", res.NumBlocks)
	}
}

func TestTopKVariants(t *testing.T) {
	c := swapHeavy(5, 3)
	cfg1 := DefaultConfig()
	res1 := compile(t, c, cfg1)
	cfg4 := DefaultConfig()
	cfg4.TopK = 4
	res4 := compile(t, c, cfg4)
	// Larger k converges in fewer iterations.
	if res4.Iterations > res1.Iterations {
		t.Errorf("topK=4 took more iterations (%d) than topK=1 (%d)", res4.Iterations, res1.Iterations)
	}
	// §V-A2: larger k may end less optimal, never dramatically better.
	if res4.Latency < res1.Latency*0.8 {
		t.Errorf("unexpected: topK=4 latency %.1f far below topK=1 %.1f", res4.Latency, res1.Latency)
	}
}

func TestCaseIIIPruningAblation(t *testing.T) {
	c := swapHeavy(5, 3)
	pruned := compile(t, c, DefaultConfig())
	cfg := DefaultConfig()
	cfg.PruneCaseIII = false
	unpruned := compile(t, c, cfg)
	// Pruning must not lose latency quality (Case III merges cannot shrink
	// the critical path).
	if pruned.Latency > unpruned.Latency+1e-6 {
		t.Errorf("pruned latency %.1f worse than unpruned %.1f", pruned.Latency, unpruned.Latency)
	}
}

func TestParameterizedOfflineOnline(t *testing.T) {
	// Offline: mine the symbolic circuit. Online: bind and compile reusing
	// the offline selections (§I contribution 5).
	sym := circuit.New(4)
	for i := 0; i+1 < 4; i++ {
		sym.Add("cx", i, i+1)
		sym.AddSymbolic("rz", "gamma", i+1)
		sym.Add("cx", i, i+1)
	}
	patterns, err := mining.MineCtx(context.Background(), sym, mining.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) == 0 {
		t.Fatal("offline mining found nothing on the symbolic circuit")
	}
	selections := mining.Select(sym, patterns, -1, 2)
	if len(selections) == 0 {
		t.Fatal("no selections")
	}

	bound := sym.Bind(map[string]float64{"gamma": 0.731})
	cfg := DefaultConfig()
	cfg.Preselected = selections
	res := compile(t, bound, cfg)
	hasAPA := false
	for _, b := range res.Blocks.Blocks {
		if b.APA {
			hasAPA = true
		}
	}
	if !hasAPA {
		t.Error("offline selections were not applied online")
	}
}

func TestCompileEmptyCircuit(t *testing.T) {
	res := compile(t, circuit.New(3), DefaultConfig())
	if res.Latency != 0 || res.NumBlocks != 0 || res.ESP != 1 {
		t.Errorf("empty circuit: %+v", res)
	}
}

func TestCompileSingleGate(t *testing.T) {
	c := circuit.New(2)
	c.Add("cx", 0, 1)
	res := compile(t, c, DefaultConfig())
	if res.NumBlocks != 1 {
		t.Errorf("blocks = %d", res.NumBlocks)
	}
	if res.Latency <= 0 {
		t.Error("latency should be positive")
	}
}

func TestCompileSymbolicFails(t *testing.T) {
	c := circuit.New(1)
	c.AddSymbolic("rz", "theta", 0)
	comp := New(nil, topology.Line(1), DefaultConfig())
	if _, err := comp.CompileCtx(context.Background(), c); err == nil {
		t.Error("unbound symbolic circuit must fail pulse generation")
	}
}

func BenchmarkCompileSwapHeavyM0(b *testing.B) {
	c := swapHeavy(5, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comp := New(nil, topology.Line(5), DefaultConfig())
		if _, err := comp.CompileCtx(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileSwapHeavyMInf(b *testing.B) {
	c := swapHeavy(5, 3)
	cfg := DefaultConfig()
	cfg.M = MInf
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comp := New(nil, topology.Line(5), cfg)
		if _, err := comp.CompileCtx(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCommuteExtensionHelps(t *testing.T) {
	// cx; rz-on-control; cx repeated: adjacency-based merging alone cannot
	// fuse the CX pair, the commutativity pass can (the §VII extension).
	c := circuit.New(3)
	for q := 0; q < 2; q++ {
		c.Add("cx", q, q+1)
		c.AddParam("rz", []float64{0.8}, q) // on the control: commutes
		c.Add("cx", q, q+1)
	}
	base := compile(t, c, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Commute = true
	withCommute := compile(t, c, cfg)
	if withCommute.Latency >= base.Latency {
		t.Errorf("commutativity pass did not help: %.1f vs %.1f", withCommute.Latency, base.Latency)
	}
}

// TestWorkerCountDeterminism asserts the parallel emit/rank pipeline is
// observably identical to the serial one: every deterministic Result field
// and every per-block latency must match exactly between workers=1 and
// workers=8. (CompileCost and WallTime include measured wall-clock time and
// are excluded; GRAPE warm starts are timing-dependent under parallelism,
// but with the analytic model latencies are pure functions of the unitary.)
func TestWorkerCountDeterminism(t *testing.T) {
	c := swapHeavy(5, 4)
	run := func(workers int) *Result {
		cfg := DefaultConfig()
		cfg.M = MInf
		cfg.Workers = workers
		return compile(t, c, cfg)
	}
	serial := run(1)
	parallel := run(8)

	if serial.Latency != parallel.Latency {
		t.Errorf("Latency: %v vs %v", serial.Latency, parallel.Latency)
	}
	if serial.InitialLatency != parallel.InitialLatency {
		t.Errorf("InitialLatency: %v vs %v", serial.InitialLatency, parallel.InitialLatency)
	}
	if serial.TotalLatency != parallel.TotalLatency {
		t.Errorf("TotalLatency: %v vs %v", serial.TotalLatency, parallel.TotalLatency)
	}
	if serial.ESP != parallel.ESP {
		t.Errorf("ESP: %v vs %v", serial.ESP, parallel.ESP)
	}
	if serial.NumBlocks != parallel.NumBlocks {
		t.Errorf("NumBlocks: %d vs %d", serial.NumBlocks, parallel.NumBlocks)
	}
	if serial.Iterations != parallel.Iterations {
		t.Errorf("Iterations: %d vs %d", serial.Iterations, parallel.Iterations)
	}
	if serial.OfflineCost != parallel.OfflineCost {
		t.Errorf("OfflineCost: %v vs %v", serial.OfflineCost, parallel.OfflineCost)
	}
	if len(serial.APASelections) != len(parallel.APASelections) {
		t.Errorf("APASelections: %d vs %d", len(serial.APASelections), len(parallel.APASelections))
	}
	sb, pb := serial.Blocks.Blocks, parallel.Blocks.Blocks
	if len(sb) != len(pb) {
		t.Fatalf("block count: %d vs %d", len(sb), len(pb))
	}
	for i := range sb {
		if sb[i].Latency != pb[i].Latency {
			t.Errorf("block %d latency: %v vs %v", i, sb[i].Latency, pb[i].Latency)
		}
	}
}

// TestWorkersDefaultSerialMatchesZero ensures Workers=0 and Workers=1 run
// the same serial pipeline.
func TestWorkersDefaultSerialMatchesZero(t *testing.T) {
	c := swapHeavy(4, 2)
	cfg0 := DefaultConfig()
	r0 := compile(t, c, cfg0)
	cfg1 := DefaultConfig()
	cfg1.Workers = 1
	r1 := compile(t, c, cfg1)
	if r0.Latency != r1.Latency || r0.NumBlocks != r1.NumBlocks || r0.Iterations != r1.Iterations {
		t.Errorf("workers=0 vs 1 diverged: %+v vs %+v", r0, r1)
	}
}

func TestCompileLeavesInputUntouched(t *testing.T) {
	// Blocks share gate slices with the input circuit (critical.Block),
	// so a compile must never edit a gate in place.
	rng := rand.New(rand.NewSource(7))
	c := swapHeavy(4, 2)
	for i := 0; i < 12; i++ {
		c.AddParam("rz", []float64{rng.Float64()}, rng.Intn(4))
		c.Add("cx", i%3, i%3+1)
	}
	before := c.Clone()
	for _, m := range []int{0, MInf} {
		cfg := DefaultConfig()
		cfg.M = m
		cfg.Workers = 2
		compile(t, c, cfg)
		if !reflect.DeepEqual(c, before) {
			t.Fatalf("M=%d: compile modified its input circuit", m)
		}
	}
}
