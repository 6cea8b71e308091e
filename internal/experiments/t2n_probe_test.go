package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"paqoc/internal/device"
)

// tableIINoisyDigest is the SHA-256 over "bench/method=<float64 bits>;" of
// every TableIINoisy cell on the default platform, in TableIIBenches ×
// Methods order. It was recorded with the Kraus-operator density-matrix
// simulator that statevec.Density replaced, so it pinned the replacement
// bit for bit. It was re-captured once since, when the complex product
// became fused multiply-adds at every dimension: four bb84 cells (one
// qubit, 2×2 products) moved by 1.1e-16 to 1.2e-15 and no other cell moved
// (EXPERIMENTS.md, "FMA products").
const tableIINoisyDigest = "4310fcb37aa953c79d6b5002fc7d106131ab4f675b3f3ae6df614e964a693b45"

// TestTableIINoisyShape runs the density-matrix T1/T2 Table II, pins every
// cell bit for bit, and asserts the paper's ranking: a paqoc variant is
// best on every benchmark.
func TestTableIINoisyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("density-matrix sweep skipped in -short mode")
	}
	rows, err := TableIINoisy(DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(TableIIBenches) {
		t.Fatalf("rows = %d", len(rows))
	}
	h := sha256.New()
	for i, r := range rows {
		if r.Bench != TableIIBenches[i] {
			t.Fatalf("row %d is %s, want %s", i, r.Bench, TableIIBenches[i])
		}
		for _, m := range Methods {
			fmt.Fprintf(h, "%s/%s=%016x;", r.Bench, m, math.Float64bits(r.Fidelity[m]))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != tableIINoisyDigest {
		t.Errorf("noisy Table II digest %s, want %s", got, tableIINoisyDigest)
	}
	for _, r := range rows {
		base := r.Fidelity["accqoc_n3d3"]
		best := ""
		bestF := -1.0
		for m, f := range r.Fidelity {
			if math.IsNaN(f) {
				continue
			}
			if f <= 0 || f > 1 {
				t.Errorf("%s/%s: fidelity %g out of range", r.Bench, m, f)
			}
			if f > bestF {
				best, bestF = m, f
			}
		}
		if best == "" {
			t.Fatalf("%s: no method fit the density-matrix budget", r.Bench)
		}
		if best == "accqoc_n3d3" || best == "accqoc_n3d5" {
			t.Errorf("%s: baseline %s won (%.4f vs paqoc_m0 %.4f); paper has paqoc best everywhere",
				r.Bench, best, bestF, r.Fidelity["paqoc_m0"])
		}
		if !math.IsNaN(base) && r.Fidelity["paqoc_m0"] < base {
			t.Errorf("%s: paqoc_m0 below accqoc_n3d3", r.Bench)
		}
	}
}

// TestTableIINoisyReadsProfileCoherence pins the device-noise decision:
// the noisy Table II takes T1/T2 from the platform's device profile, so a
// backend with half the default T2 scores strictly lower in every cell.
func TestTableIINoisyReadsProfileCoherence(t *testing.T) {
	if testing.Short() {
		t.Skip("density-matrix sweep skipped in -short mode")
	}
	def := device.Default()
	halved := &device.Profile{
		Name: def.Name + "-half-t2", NewTopology: def.NewTopology,
		DtNanoseconds: def.DtNanoseconds, MuMaxGHz: def.MuMaxGHz,
		SingleQubitFactor: def.SingleQubitFactor, ZZCrosstalk: def.ZZCrosstalk,
		T1Dt: def.T1Dt, T2Dt: def.T2Dt / 2,
	}
	base, err := TableIINoisy(PlatformFor(def))
	if err != nil {
		t.Fatal(err)
	}
	worse, err := TableIINoisy(PlatformFor(halved))
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for i, r := range base {
		for _, m := range Methods {
			f, g := r.Fidelity[m], worse[i].Fidelity[m]
			if math.IsNaN(f) {
				continue
			}
			cells++
			if !(g < f) {
				t.Errorf("%s/%s: T2/2 gives %.6f, default %.6f; want strictly lower", r.Bench, m, g, f)
			}
		}
	}
	if cells == 0 {
		t.Fatal("no finite cells")
	}
}
