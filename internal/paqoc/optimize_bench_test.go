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
// It reports the merges each search applies, pre-merges included.
func BenchmarkOptimize(b *testing.B) {
	topo := topology.Grid(5, 5)
	for _, name := range []string{"qft", "dnn"} {
		b.Run(name, func(b *testing.B) {
			spec, _ := bench.ByName(name)
			phys, _, err := transpile.ToPhysical(spec.Build(), topo, route.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Workers = 1
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
