package experiments

import (
	"testing"

	"paqoc/internal/bench"
	"paqoc/internal/device"
)

// goldenFastFive pins the default platform's sweep results on the
// fast-five subset, captured from the pre-profile code. Latency,
// TotalLatency, ESP, and NumBlocks are pure functions of the circuit and
// the analytical model, so they must match bit for bit: any drift means
// the device-profile plumbing changed the physics of the default backend.
// (CompileCost carries a measured wall-clock component and is not pinned.)
// Latency and TotalLatency were re-baselined once, when the closed-form
// Weyl coordinates replaced the chamber grid search (+0.03% to +0.3%, old
// and new values in EXPERIMENTS.md); ESP and NumBlocks did not move.
var goldenFastFive = []struct {
	bench, method         string
	latency, totalLatency float64
	esp                   float64
	blocks                int
}{
	{"rd32_270", "accqoc_n3d3", 3488.5714614185567, 4011.2517169817424, 0.75635909262046574, 48},
	{"rd32_270", "accqoc_n3d5", 2710.6386108639344, 3091.6300266152507, 0.84141555732122453, 30},
	{"rd32_270", "paqoc_m0", 1936.852966204453, 1936.852966204453, 0.9295762048973496, 12},
	{"rd32_270", "paqoc_mtuned", 1931.7359889577449, 1931.7359889577449, 0.93538299824372606, 12},
	{"rd32_270", "paqoc_minf", 1931.7359889577449, 1931.7359889577449, 0.93538299824372606, 12},
	{"decod24-v1_41", "accqoc_n3d3", 3296.1243061479004, 3758.710399369224, 0.76644923387359798, 48},
	{"decod24-v1_41", "accqoc_n3d5", 2971.6363573586514, 3365.2821681260366, 0.84972061998779669, 30},
	{"decod24-v1_41", "paqoc_m0", 1542.6315034639983, 1549.4933470752653, 0.93279626009521022, 11},
	{"decod24-v1_41", "paqoc_mtuned", 1542.6315034639983, 1549.4933470752653, 0.93279626009521022, 11},
	{"decod24-v1_41", "paqoc_minf", 1542.6315034639983, 1549.4933470752653, 0.93279626009521022, 11},
	{"4gt10-v1_81", "accqoc_n3d3", 6658.0394438883241, 7285.1249181495368, 0.6088938985763146, 84},
	{"4gt10-v1_81", "accqoc_n3d5", 5385.439270811542, 5792.8488905634413, 0.72177335119994379, 55},
	{"4gt10-v1_81", "paqoc_m0", 2464.9606965000144, 2640.4123005571032, 0.89149253796433736, 19},
	{"4gt10-v1_81", "paqoc_mtuned", 2464.9606965000144, 2640.4123005571032, 0.89149253796433736, 19},
	{"4gt10-v1_81", "paqoc_minf", 2416.8038666440702, 2505.7772844115475, 0.9025408016095896, 17},
	{"qaoa", "accqoc_n3d3", 3043.8493830093257, 5959.9205688627899, 0.57439953680069011, 96},
	{"qaoa", "accqoc_n3d5", 4608.7910003213947, 7553.6338344777423, 0.67069127614910495, 74},
	{"qaoa", "paqoc_m0", 2360.5050199736934, 4565.8107076779552, 0.65570964793331399, 69},
	{"qaoa", "paqoc_mtuned", 2360.5050199736934, 4565.8107076779552, 0.65570964793331399, 69},
	{"qaoa", "paqoc_minf", 2360.5050199736934, 4565.8107076779552, 0.65570964793331399, 69},
	{"simon", "accqoc_n3d3", 1248.6356777555873, 1702.2983148034687, 0.89475266475413318, 22},
	{"simon", "accqoc_n3d5", 1093.143211173345, 1362.7052722897145, 0.93104527278084126, 14},
	{"simon", "paqoc_m0", 506.34726607110599, 666.51264142440561, 0.94431978041872988, 8},
	{"simon", "paqoc_mtuned", 691.91285087366487, 849.3311892024343, 0.95152952934315826, 8},
	{"simon", "paqoc_minf", 691.91285087366487, 849.3311892024343, 0.95152952934315826, 8},
}

func TestDefaultProfileReproducesSeedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("fast-five sweep takes tens of seconds")
	}
	var names []string
	for _, g := range goldenFastFive {
		if len(names) == 0 || names[len(names)-1] != g.bench {
			names = append(names, g.bench)
		}
	}
	var specs []bench.Spec
	for _, n := range names {
		s, ok := bench.ByName(n)
		if !ok {
			t.Fatalf("unknown bench %s", n)
		}
		specs = append(specs, s)
	}

	p := DefaultPlatform()
	if p.Profile == nil || p.Profile.Name != device.DefaultName {
		t.Fatalf("default platform profile = %+v", p.Profile)
	}
	rows, err := p.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]string]MethodResult{}
	for _, row := range rows {
		for _, r := range row.Results {
			got[[2]string{row.Bench, r.Method}] = r
		}
	}
	for _, g := range goldenFastFive {
		r, ok := got[[2]string{g.bench, g.method}]
		if !ok {
			t.Errorf("%s/%s: missing result", g.bench, g.method)
			continue
		}
		if r.Latency != g.latency {
			t.Errorf("%s/%s: latency %.17g, want %.17g", g.bench, g.method, r.Latency, g.latency)
		}
		if r.TotalLatency != g.totalLatency {
			t.Errorf("%s/%s: total latency %.17g, want %.17g", g.bench, g.method, r.TotalLatency, g.totalLatency)
		}
		if r.ESP != g.esp {
			t.Errorf("%s/%s: ESP %.17g, want %.17g", g.bench, g.method, r.ESP, g.esp)
		}
		if r.NumBlocks != g.blocks {
			t.Errorf("%s/%s: blocks %d, want %d", g.bench, g.method, r.NumBlocks, g.blocks)
		}
	}
}
