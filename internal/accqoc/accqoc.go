// Package accqoc implements the paper's baseline, AccQOC (Cheng, Deng,
// Qian — ISCA 2020), in the extended form the evaluation uses (§VI-b):
// the circuit is divided into fixed-size subcircuits with at most
// MaxQubits qubits (3 in the evaluation) and a fixed depth limit (3 or 5),
// and pulses are generated per subcircuit. Compilation is accelerated by a
// similarity graph over the distinct subcircuit unitaries: a Prim MST
// determines the construction order so each pulse generation starts from
// the nearest previously generated pulse (§VII).
package accqoc

import (
	"context"
	"fmt"
	"time"

	"paqoc/internal/circuit"
	"paqoc/internal/critical"
	"paqoc/internal/engine"
	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/pulsesim"
)

// Options configures the baseline partitioner.
type Options struct {
	MaxQubits      int     // per-group qubit cap (3 in accqoc_n3d*)
	Depth          int     // fixed depth limit (3 or 5)
	FidelityTarget float64 // per-group fidelity target
	// Workers bounds the emission worker pool (internal/engine), so
	// Fig. 10/11 comparisons against the parallel PAQOC pipeline stay
	// like for like. 0 or 1 emits serially in MST construction order;
	// higher values fan out (warm starts then depend on completion
	// timing, exactly as a parallel AccQOC would).
	Workers int
}

// N3D3 is the accqoc_n3d3 configuration.
func N3D3() Options { return Options{MaxQubits: 3, Depth: 3, FidelityTarget: 0.999} }

// N3D5 is the accqoc_n3d5 configuration.
func N3D5() Options { return Options{MaxQubits: 3, Depth: 5, FidelityTarget: 0.999} }

// Result mirrors the PAQOC result for side-by-side comparison.
type Result struct {
	Blocks       *critical.BlockCircuit
	Latency      float64
	TotalLatency float64
	ESP          float64
	CompileCost  float64
	WallTime     time.Duration
	NumBlocks    int
}

// CompileCtx partitions the circuit and generates pulses per group, with
// observability — the baseline carries the same
// instrumentation as the PAQOC path so per-stage latency breakdowns
// compare like for like: spans accqoc.partition, accqoc.order, and
// accqoc.emit under accqoc.compile, plus group counters.
func CompileCtx(ctx context.Context, c *circuit.Circuit, gen pulse.Generator, opts Options) (*Result, error) {
	if opts.MaxQubits == 0 {
		opts.MaxQubits = 3
	}
	if opts.Depth == 0 {
		opts.Depth = 3
	}
	if opts.FidelityTarget == 0 {
		opts.FidelityTarget = 0.999
	}
	start := time.Now()
	reg := obs.MetricsFrom(ctx)
	ctx, root := obs.StartSpan(ctx, "accqoc.compile")
	root.SetAttr("gates", len(c.Gates))
	defer root.End()

	_, pSpan := obs.StartSpan(ctx, "accqoc.partition")
	groups := Partition(c, opts.MaxQubits, opts.Depth)
	bc := blocksFromGroups(c, groups)
	pSpan.SetAttr("groups", len(groups))
	pSpan.End()
	reg.Counter("accqoc.groups").Add(int64(len(groups)))

	// Similarity-ordered pulse generation (MST over distinct unitaries).
	_, oSpan := obs.StartSpan(ctx, "accqoc.order")
	order, _, err := constructionOrder(bc)
	oSpan.End()
	if err != nil {
		return nil, err
	}
	// Emission on the worker pool, submitted in MST order so the serial
	// case (Workers ≤ 1) preserves the similarity-ordered warm starts
	// exactly. Each task writes only its own block; costs are reduced in
	// MST order afterwards so the total is deterministic per worker count.
	ectx, eSpan := obs.StartSpan(ctx, "accqoc.emit")
	emitted := reg.Counter("accqoc.emitted")
	eSpan.SetAttr("workers", opts.Workers)
	pool, _ := engine.WithContext(ectx, opts.Workers)
	for _, bi := range order {
		bi := bi
		pool.Go(func(ctx context.Context) error {
			g, err := gen.GenerateCtx(ctx, bc.Blocks[bi].Custom(), opts.FidelityTarget)
			if err != nil {
				return fmt.Errorf("accqoc: group %s: %v", bc.Blocks[bi].Custom().Describe(), err)
			}
			emitted.Inc()
			bc.Blocks[bi].Gen = g
			bc.Blocks[bi].Latency = g.Latency
			return nil
		})
	}
	if err := pool.Wait(); err != nil {
		eSpan.End()
		return nil, err
	}
	var cost float64
	for _, bi := range order {
		cost += bc.Blocks[bi].Gen.Cost
	}
	eSpan.End()

	wall := time.Since(start)
	res := &Result{
		Blocks:       bc,
		Latency:      bc.CriticalPath(),
		TotalLatency: bc.TotalLatency(),
		ESP:          pulsesim.ESPCtx(ctx, bc.Generated()),
		CompileCost:  cost + wall.Seconds(),
		WallTime:     wall,
		NumBlocks:    len(bc.Blocks),
	}
	bc.ReleaseDAG()
	return res, nil
}

// Partition greedily groups consecutive gates into fixed-size subcircuits:
// a gate joins the open group holding all of its qubits' last writers when
// the qubit cap and depth cap allow; otherwise the conflicting groups close
// and a fresh group opens. Returned groups list gate indices in program
// order.
func Partition(c *circuit.Circuit, maxQubits, depth int) [][]int {
	type group struct {
		id     int
		gates  []int
		qubits map[int]bool
		qDepth map[int]int // per-qubit chain depth inside the group
		open   bool
	}
	var groups []*group
	owner := make(map[int]*group) // qubit → open group that last wrote it

	newGroup := func(gi int, g circuit.Gate) {
		ng := &group{id: len(groups), qubits: map[int]bool{}, qDepth: map[int]int{}, open: true}
		ng.gates = append(ng.gates, gi)
		for _, q := range g.Qubits {
			ng.qubits[q] = true
			ng.qDepth[q] = 1
			if prev := owner[q]; prev != nil && prev != ng {
				prev.open = false
			}
			owner[q] = ng
		}
		groups = append(groups, ng)
	}

	for gi, g := range c.Gates {
		// Identify the open group owning this gate's qubits. Joining is
		// only legal when every qubit's last writer is the host itself, an
		// earlier-created (already closed) group, or nothing — otherwise
		// the block order would stop being a linear extension of the
		// dependence DAG.
		var host *group
		joinable := true
		for _, q := range g.Qubits {
			og := owner[q]
			if og == nil || !og.open {
				continue
			}
			if host == nil {
				host = og
			} else if host != og {
				joinable = false // gate spans two open groups
			}
		}
		if host != nil && joinable {
			for _, q := range g.Qubits {
				if og := owner[q]; og != nil && og != host && og.id > host.id {
					joinable = false // depends on a group created after host
					break
				}
			}
		}
		if host == nil || !joinable {
			newGroup(gi, g)
			continue
		}
		// Capacity checks: qubit-union and depth.
		unionQ := len(host.qubits)
		for _, q := range g.Qubits {
			if !host.qubits[q] {
				unionQ++
			}
		}
		newDepth := 0
		for _, q := range g.Qubits {
			if d := host.qDepth[q]; d > newDepth {
				newDepth = d
			}
		}
		newDepth++
		if unionQ > maxQubits || newDepth > depth {
			newGroup(gi, g)
			continue
		}
		host.gates = append(host.gates, gi)
		for _, q := range g.Qubits {
			host.qubits[q] = true
			host.qDepth[q] = newDepth
			if prev := owner[q]; prev != nil && prev != host {
				prev.open = false
			}
			owner[q] = host
		}
	}

	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = g.gates
	}
	return out
}

// blocksFromGroups builds the block circuit in program order of each
// group's first gate.
func blocksFromGroups(c *circuit.Circuit, groups [][]int) *critical.BlockCircuit {
	bc := &critical.BlockCircuit{NumQubits: c.NumQubits}
	for _, grp := range groups {
		gates := make([]circuit.Gate, len(grp))
		for i, gi := range grp {
			gates[i] = c.Gates[gi]
		}
		cg := pulse.NewCustomGate(gates)
		bc.Blocks = append(bc.Blocks, &critical.Block{
			Gates:  gates,
			Qubits: cg.Qubits,
			Origin: append([]int(nil), grp...),
		})
	}
	return bc
}

// constructionOrder returns block indices in MST order over unitary
// similarity, starting from the most "central" block, so warm starts in
// the pulse generator's database fire as often as possible.
func constructionOrder(bc *critical.BlockCircuit) ([]int, []*linalg.Matrix, error) {
	n := len(bc.Blocks)
	unitaries := make([]*linalg.Matrix, n)
	for i, b := range bc.Blocks {
		u, err := b.Custom().Unitary()
		if err != nil {
			return nil, nil, err
		}
		unitaries[i] = u
	}
	if n <= 2 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order, unitaries, nil
	}
	// Prim's algorithm; distances only defined between same-dimension
	// unitaries, cross-dimension edges get a large constant.
	const crossDim = 1e6
	dist := func(a, b int) float64 {
		ua, ub := unitaries[a], unitaries[b]
		if ua.Rows != ub.Rows {
			return crossDim
		}
		return linalg.GlobalPhaseDistance(ua, ub)
	}
	inTree := make([]bool, n)
	best := make([]float64, n)
	for i := range best {
		best[i] = crossDim * 2
	}
	order := []int{0}
	inTree[0] = true
	for i := 1; i < n; i++ {
		best[i] = dist(0, i)
	}
	for len(order) < n {
		next, nextD := -1, crossDim*3
		for i := 0; i < n; i++ {
			if !inTree[i] && best[i] < nextD {
				next, nextD = i, best[i]
			}
		}
		if next < 0 {
			break
		}
		inTree[next] = true
		order = append(order, next)
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := dist(next, i); d < best[i] {
					best[i] = d
				}
			}
		}
	}
	return order, unitaries, nil
}
