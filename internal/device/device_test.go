package device

import (
	"strings"
	"testing"

	"paqoc/internal/hamiltonian"
	"paqoc/internal/topology"
)

// Every registered profile must satisfy the compiler stack's assumptions.
func TestProfileConformance(t *testing.T) {
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("%s: Name = %q", name, p.Name)
		}
		topo := p.Topology()
		if topo == nil || topo.NumQubits < 1 {
			t.Fatalf("%s: bad topology", name)
		}
		if p.Topology() != topo {
			t.Errorf("%s: Topology() not memoized", name)
		}
		params := p.Params()
		if params.IsZero() || params.DriveBound() <= 0 || params.CouplingBound() <= 0 {
			t.Errorf("%s: degenerate control params %+v", name, params)
		}

		// A 2-qubit block system must carry the profile's bounds on every
		// control and keep the drift Hermitian (unitarity of the
		// propagators follows).
		sys := p.System(2, hamiltonian.LinearChain(2))
		for _, c := range sys.Controls {
			want := params.DriveBound()
			if strings.HasPrefix(c.Name, "c") {
				want = params.CouplingBound()
			}
			if c.Bound != want {
				t.Errorf("%s: control %s bound %g, want %g", name, c.Name, c.Bound, want)
			}
		}
		if !sys.Drift.IsHermitian(1e-12) {
			t.Errorf("%s: drift not Hermitian", name)
		}
		if (p.ZZCrosstalk != 0) != (sys.Drift.MaxAbs() > 0) {
			t.Errorf("%s: crosstalk drift mismatch (zz=%g, |drift|=%g)",
				name, p.ZZCrosstalk, sys.Drift.MaxAbs())
		}

		// Fingerprint: non-empty, memoized, and stable across fresh
		// instances (i.e. independent of map iteration order).
		fp := p.Fingerprint()
		if len(fp) != 16 {
			t.Fatalf("%s: fingerprint %q", name, fp)
		}
		clone := &Profile{
			Name: p.Name, NewTopology: p.NewTopology,
			DtNanoseconds: p.DtNanoseconds, MuMaxGHz: p.MuMaxGHz,
			SingleQubitFactor: p.SingleQubitFactor, ZZCrosstalk: p.ZZCrosstalk,
			T1Dt: p.T1Dt, T2Dt: p.T2Dt,
		}
		for i := 0; i < 3; i++ {
			if got := clone.Fingerprint(); got != fp {
				t.Errorf("%s: fingerprint unstable: %q vs %q", name, got, fp)
			}
		}
	}
}

func TestFingerprintsDistinguishPhysics(t *testing.T) {
	seen := map[string]string{}
	for _, name := range []string{DefaultName, "heavy-hex", "linear-chain", "xy-grid-5x5-zz"} {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		fp := p.Fingerprint()
		if prior, dup := seen[fp]; dup {
			t.Errorf("%s and %s share fingerprint %s", name, prior, fp)
		}
		seen[fp] = name
	}
}

// The default profile must reproduce the seed platform exactly: same
// topology, bit-identical bounds, no extra drift.
func TestDefaultProfileMatchesSeedPlatform(t *testing.T) {
	p := Default()
	if p.Name != DefaultName {
		t.Fatalf("default = %q", p.Name)
	}
	if p.Params() != hamiltonian.DefaultParams() {
		t.Errorf("params %+v != DefaultParams", p.Params())
	}
	topo := p.Topology()
	want := topology.Grid(5, 5)
	if topo.NumQubits != want.NumQubits {
		t.Fatalf("qubits %d", topo.NumQubits)
	}
	we, ge := want.Edges(), topo.Edges()
	if len(we) != len(ge) {
		t.Fatalf("edges %d != %d", len(ge), len(we))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("edge %d: %v != %v", i, ge[i], we[i])
		}
	}
	pairs := hamiltonian.LinearChain(3)
	got := p.System(3, pairs)
	seed := hamiltonian.XYTransmon(3, pairs)
	if len(got.Controls) != len(seed.Controls) {
		t.Fatalf("controls %d != %d", len(got.Controls), len(seed.Controls))
	}
	for i := range got.Controls {
		if got.Controls[i].Name != seed.Controls[i].Name ||
			got.Controls[i].Bound != seed.Controls[i].Bound {
			t.Errorf("control %d: %s/%g vs %s/%g", i,
				got.Controls[i].Name, got.Controls[i].Bound,
				seed.Controls[i].Name, seed.Controls[i].Bound)
		}
	}
	if got.Drift.MaxAbs() != 0 {
		t.Error("default profile must not add drift")
	}
}

func TestLookupDynamicNames(t *testing.T) {
	cases := []struct {
		name   string
		qubits int
	}{
		{"xy-grid-2x3", 6},
		{"linear-chain-7", 7},
		{"heavy-hex-2", 13},
		{"xy-grid-32x32", maxDynamicQubits},
		{"linear-chain-1024", maxDynamicQubits},
		{"heavy-hex-204", 1023},
	}
	for _, c := range cases {
		p, err := Lookup(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := p.Topology().NumQubits; got != c.qubits {
			t.Errorf("%s: %d qubits, want %d", c.name, got, c.qubits)
		}
		again, err := Lookup(c.name)
		if err != nil || again != p {
			t.Errorf("%s: dynamic profile not memoized", c.name)
		}
	}
	for _, bad := range []string{"", "nope", "xy-grid-0x4", "linear-chain-0", "heavy-hex-0", "xy-grid-x", "XY-GRID-5x5",
		// Too large to build: names arrive in client requests.
		"xy-grid-33x32", "xy-grid-1x1025", "linear-chain-1025", "heavy-hex-205",
		"xy-grid-4294967296x4294967296", "linear-chain-99999999999999999999",
		"heavy-hex-3689348814741910324"} { // 5·cells+3 wraps to 7
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) should fail", bad)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register should panic")
		}
	}()
	Register(Default())
}
