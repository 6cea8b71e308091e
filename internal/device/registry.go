package device

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"paqoc/internal/hamiltonian"
	"paqoc/internal/topology"
)

// DefaultName is the paper's evaluation platform and the backend every
// entry point uses when none is requested.
const DefaultName = "xy-grid-5x5"

var (
	regMu    sync.RWMutex
	registry = map[string]*Profile{}
)

// Register adds a profile to the registry. It panics on an empty name or a
// duplicate — profiles are registered once at init time.
func Register(p *Profile) {
	if p.Name == "" {
		panic("device: profile needs a name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("device: duplicate profile %q", p.Name))
	}
	registry[p.Name] = p
}

// Names lists the registered profiles in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default returns the paper's platform profile.
func Default() *Profile {
	p, err := Lookup(DefaultName)
	if err != nil {
		panic(err) // registered in init below
	}
	return p
}

// Dynamic family names: grids, chains, and heavy-hex lattices of any size
// stay expressible without pre-registering every geometry (the old CLI
// -rows/-cols flags map onto xy-grid-RxC).
var (
	gridName  = regexp.MustCompile(`^xy-grid-(\d+)x(\d+)$`)
	chainName = regexp.MustCompile(`^linear-chain-(\d+)$`)
	hexName   = regexp.MustCompile(`^heavy-hex-(\d+)$`)
)

// Lookup resolves a backend name: a registered profile, or a dynamic
// family name (xy-grid-RxC, linear-chain-N, heavy-hex-N) built with the
// paper's default control parameters. A dynamic profile is named and
// memoized in the registry by its canonical spelling, with no leading
// zeros, so every spelling of one device returns the same *Profile (and
// shares its cached topology and fingerprint) and the registry grows by
// one entry per device, not per spelling.
func Lookup(name string) (*Profile, error) {
	regMu.RLock()
	p, ok := registry[name]
	regMu.RUnlock()
	if ok {
		return p, nil
	}
	p, err := parseDynamic(name)
	if err != nil {
		return nil, err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prior, ok := registry[p.Name]; ok { // registered, or lost a race
		return prior, nil
	}
	registry[p.Name] = p
	return p, nil
}

// maxDynamicQubits bounds a dynamic profile. Backend names arrive in
// client requests, and a profile's topology is built in full on first use.
const maxDynamicQubits = 1024

// parseDynamic builds a dynamic family profile, named by the canonical
// spelling of the parsed sizes. An out-of-range number parses as the
// largest int, so the size checks reject it too.
func parseDynamic(name string) (*Profile, error) {
	if m := gridName.FindStringSubmatch(name); m != nil {
		rows, _ := strconv.Atoi(m[1])
		cols, _ := strconv.Atoi(m[2])
		if rows < 1 || cols < 1 || rows > maxDynamicQubits/cols {
			return nil, fmt.Errorf("device: bad grid size in %q (1 to %d qubits)", name, maxDynamicQubits)
		}
		return defaultControls(&Profile{
			Name:        fmt.Sprintf("xy-grid-%dx%d", rows, cols),
			Description: fmt.Sprintf("%d×%d XY-coupled transmon grid", rows, cols),
			NewTopology: func() *topology.Topology { return topology.Grid(rows, cols) },
		}), nil
	}
	if m := chainName.FindStringSubmatch(name); m != nil {
		n, _ := strconv.Atoi(m[1])
		if n < 1 || n > maxDynamicQubits {
			return nil, fmt.Errorf("device: bad chain length in %q (1 to %d qubits)", name, maxDynamicQubits)
		}
		return defaultControls(&Profile{
			Name:        fmt.Sprintf("linear-chain-%d", n),
			Description: fmt.Sprintf("%d-qubit linear chain", n),
			NewTopology: func() *topology.Topology { return topology.Line(n) },
		}), nil
	}
	if m := hexName.FindStringSubmatch(name); m != nil {
		cells, _ := strconv.Atoi(m[1])
		if cells < 1 || cells > (maxDynamicQubits-3)/5 { // 5·cells+3 qubits
			return nil, fmt.Errorf("device: bad heavy-hex cell count in %q (1 to %d qubits)", name, maxDynamicQubits)
		}
		return defaultControls(&Profile{
			Name:        fmt.Sprintf("heavy-hex-%d", cells),
			Description: fmt.Sprintf("heavy-hex lattice, %d cells (%d qubits)", cells, 5*cells+3),
			NewTopology: func() *topology.Topology { return topology.HeavyHex(cells) },
		}), nil
	}
	return nil, fmt.Errorf("device: unknown backend %q (known: %v)", name, Names())
}

// defaultControls fills in the paper's §VI-c control parameters and NISQ
// coherence times.
func defaultControls(p *Profile) *Profile {
	p.DtNanoseconds = hamiltonian.DtNanoseconds
	p.MuMaxGHz = hamiltonian.MuMaxGHz
	p.SingleQubitFactor = hamiltonian.SingleQubitFactor
	p.T1Dt = 40000
	p.T2Dt = 20000
	return p
}

func init() {
	Register(defaultControls(&Profile{
		Name:        DefaultName,
		Description: "paper §VI-c platform: 5×5 XY-coupled transmon grid, μmax = 0.02 GHz, dt = 2/9 ns",
		NewTopology: func() *topology.Topology { return topology.Grid(5, 5) },
	}))
	Register(defaultControls(&Profile{
		Name:        "heavy-hex",
		Description: "IBM-style heavy-hexagon lattice, 4 cells (23 qubits), degree ≤ 3",
		NewTopology: func() *topology.Topology { return topology.HeavyHex(4) },
	}))
	Register(defaultControls(&Profile{
		Name:        "linear-chain",
		Description: "16-qubit linear chain — worst-case routing diameter",
		NewTopology: func() *topology.Topology { return topology.Line(16) },
	}))
	zz := defaultControls(&Profile{
		Name:        "xy-grid-5x5-zz",
		Description: "5×5 XY grid with 3× typical always-on ZZ crosstalk on every coupling",
		NewTopology: func() *topology.Topology { return topology.Grid(5, 5) },
	})
	zz.ZZCrosstalk = 3 * hamiltonian.TypicalZZCrosstalk
	Register(zz)
}
