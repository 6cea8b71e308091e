package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	"paqoc/internal/bench"
)

// tableIMethodsDigest is the SHA-256 of every compile of the seventeen
// Table I circuits under the five Methods on the default platform: per
// compile its Latency, TotalLatency, ESP and NumBlocks (plus
// InitialLatency and OfflineCost for the paqoc methods), and per block its
// qubits, gates, Latency, APA flag and emitted pulse's latency, fidelity,
// error and cost bits. CompileCost and WallTime carry wall-clock time and
// are left out. It was captured before the ranker stopped going through a
// pulse database and the per-method recipes were merged, and pins the
// merge search's output bit for bit across refactors of it.
const tableIMethodsDigest = "ced00f8e57332eeb8d4b8799a574066341a22b1c3e7f36efd18462faff8676ef"

func TestMethodsDigestTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("17 circuits × 5 methods take tens of seconds")
	}
	p := DefaultPlatform()
	h := sha256.New()
	for _, spec := range bench.All() {
		phys, err := p.Physical(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range Methods {
			r, err := p.compileMethod(context.Background(), m, phys)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, m, err)
			}
			writeMethodRun(h, spec.Name, r)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != tableIMethodsDigest {
		t.Errorf("Table I × methods digest = %s, want %s", got, tableIMethodsDigest)
	}
}

func bitsOf(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// writeMethodRun hashes one compile: its summary line, then one line per
// block.
func writeMethodRun(h hash.Hash, bench string, r *methodRun) {
	fmt.Fprintf(h, "%s/%s lat=%s total=%s esp=%s blocks=%d", bench, r.Method,
		bitsOf(r.Latency), bitsOf(r.TotalLatency), bitsOf(r.ESP), r.NumBlocks)
	if r.Method == "paqoc_m0" || r.Method == "paqoc_mtuned" || r.Method == "paqoc_minf" {
		fmt.Fprintf(h, " initial=%s offline=%s", bitsOf(r.InitialLatency), bitsOf(r.OfflineCost))
	}
	fmt.Fprintln(h)
	for _, b := range r.Blocks.Blocks {
		fmt.Fprintf(h, "block q%v apa=%t lat=%s", b.Qubits, b.APA, bitsOf(b.Latency))
		for _, g := range b.Gates {
			fmt.Fprintf(h, " %s%v", g.Name, g.Qubits)
			for _, v := range g.Params {
				fmt.Fprintf(h, ",%s", bitsOf(v))
			}
		}
		if g := b.Gen; g != nil {
			fmt.Fprintf(h, " gen=%s/%s/%s/%s", bitsOf(g.Latency), bitsOf(g.Fidelity), bitsOf(g.Error), bitsOf(g.Cost))
		}
		fmt.Fprintln(h)
	}
}
