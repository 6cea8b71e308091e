package paqoc

import (
	"context"
	"testing"

	"paqoc/internal/bench"
	"paqoc/internal/critical"
	"paqoc/internal/pulse"
	"paqoc/internal/route"
	"paqoc/internal/topology"
	"paqoc/internal/transpile"
)

// BenchmarkOptimize times Algorithm 1's search alone (paqoc.optimize) on
// routed Table I circuits: M=0, one worker, the analytical model. Each
// iteration starts from fresh single-gate blocks built outside the timer.
// It reports the merges each search applies, pre-merges included. The
// qft and dnn rows run DefaultConfig, whose Case II probe generates each
// applied merge; the -caseII-off rows rank applied merges with the model
// alone, as every end-to-end workload does.
func BenchmarkOptimize(b *testing.B) {
	topo := topology.Grid(5, 5)
	for _, row := range []struct {
		name, bench string
		caseII      bool
	}{
		{"qft", "qft", true},
		{"dnn", "dnn", true},
		{"qft-caseII-off", "qft", false},
		{"dnn-caseII-off", "dnn", false},
	} {
		b.Run(row.name, func(b *testing.B) {
			spec, _ := bench.ByName(row.bench)
			phys, _, err := transpile.ToPhysical(spec.Build(), topo, route.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Workers = 1
			cfg.ProbeCaseII = row.caseII
			cp := New(nil, topo, cfg)
			ctx := context.Background()
			est := func(cg *pulse.CustomGate) (float64, error) { return cp.Ranker.LatencyCtx(ctx, cg) }
			b.ReportAllocs()
			merges := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bc, err := critical.FromCircuit(phys, est)
				if err != nil {
					b.Fatal(err)
				}
				before := len(bc.Blocks)
				b.StartTimer()
				if _, err := cp.optimize(ctx, bc); err != nil {
					b.Fatal(err)
				}
				merges += before - len(bc.Blocks)
			}
			b.ReportMetric(float64(merges)/float64(b.N), "merges/op")
		})
	}
}
