package mining_test

import (
	"context"
	"testing"

	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/mining"
	"paqoc/internal/route"
	"paqoc/internal/transpile"
)

// sweepCircuits routes the Table I circuits except dnn on the default
// xy-grid-5x5 backend, as perfbench's sweep_analytical workload does.
func sweepCircuits(b *testing.B) []*circuit.Circuit {
	b.Helper()
	topo := device.Default().Topology()
	var out []*circuit.Circuit
	for _, spec := range bench.All() {
		if spec.Name == "dnn" {
			continue
		}
		phys, _, err := transpile.ToPhysical(spec.Build(), topo, route.DefaultOptions())
		if err != nil {
			b.Fatalf("%s: %v", spec.Name, err)
		}
		out = append(out, phys)
	}
	return out
}

// BenchmarkMine is the miner's layer row: one op mines all sixteen routed
// sweep circuits with the default options.
func BenchmarkMine(b *testing.B) {
	circuits := sweepCircuits(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range circuits {
			if _, err := mining.MineCtx(ctx, c, mining.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSelect is the selection's layer row: one op tunes M and selects
// M patterns on each of the sixteen routed sweep circuits, from patterns
// mined before the timer starts.
func BenchmarkSelect(b *testing.B) {
	circuits := sweepCircuits(b)
	patterns := make([][]mining.Pattern, len(circuits))
	for i, c := range circuits {
		ps, err := mining.MineCtx(context.Background(), c, mining.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		patterns[i] = ps
	}
	minSupport := mining.DefaultOptions().MinSupport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, c := range circuits {
			m := mining.TunedM(c, patterns[k], minSupport)
			mining.Select(c, patterns[k], m, minSupport)
		}
	}
}
