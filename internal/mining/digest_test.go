package mining_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"paqoc/internal/bench"
	"paqoc/internal/device"
	"paqoc/internal/mining"
	"paqoc/internal/route"
	"paqoc/internal/transpile"
)

// tableIMiningDigest is the SHA-256 of everything the miner returns for
// the seventeen Table I circuits routed on the default xy-grid-5x5
// backend: MineCtx's patterns, Select with m = -1 and m = 3, and TunedM.
// It pins the miner's output bit for bit across refactors of the
// enumerator, the signature and the selection loop.
const tableIMiningDigest = "8ac9ec6a94a023656fe29d851b4bbf95d6d1ec309369834dac7034a59d15ff14"

func writeSelections(h hash.Hash, sels []mining.Selection) {
	fmt.Fprintf(h, "sel %d\n", len(sels))
	for _, s := range sels {
		fmt.Fprintf(h, "%s %v\n", s.Pattern.Signature, s.Chosen)
	}
}

func TestMiningDigestTableI(t *testing.T) {
	prof, err := device.Lookup(device.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	patterns := 0
	for _, spec := range bench.All() {
		phys, _, err := transpile.ToPhysical(spec.Build(), prof.Topology(), route.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		opts := mining.DefaultOptions()
		ps, err := mining.MineCtx(context.Background(), phys, opts)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		patterns += len(ps)
		fmt.Fprintf(h, "bench %s patterns %d\n", spec.Name, len(ps))
		for _, p := range ps {
			fmt.Fprintf(h, "%s g%d q%d s%d %v\n", p.Signature, p.GateCount, p.QubitCount, p.Support, p.Embeddings)
		}
		writeSelections(h, mining.Select(phys, ps, -1, opts.MinSupport))
		writeSelections(h, mining.Select(phys, ps, 3, opts.MinSupport))
		fmt.Fprintf(h, "tuned %d\n", mining.TunedM(phys, ps, opts.MinSupport))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != tableIMiningDigest {
		t.Errorf("mining digest over %d patterns = %s, want %s", patterns, got, tableIMiningDigest)
	}
}
