package experiments

import (
	"context"
	"fmt"
	"io"

	"paqoc/internal/bench"
	"paqoc/internal/paqoc"
)

// AblationRow is one configuration's outcome on one benchmark.
type AblationRow struct {
	Config      string
	Latency     float64
	CompileCost float64
	ESP         float64
	Blocks      int
	Iterations  int
}

// Ablation sweeps the design knobs DESIGN.md calls out — the APA budget M,
// top-k, the width cap maxN, Case III pruning, and the commutativity
// extension — on one benchmark, holding everything else at the evaluation
// defaults.
func (p *Platform) Ablation(benchName string) ([]AblationRow, error) {
	spec, ok := bench.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", benchName)
	}
	phys, err := p.Physical(spec)
	if err != nil {
		return nil, err
	}

	base := func() paqoc.Config {
		cfg := paqoc.DefaultConfig()
		cfg.FidelityTarget = p.Fidelity
		cfg.ProbeCaseII = false
		return cfg
	}
	configs := []struct {
		name   string
		mutate func(*paqoc.Config)
	}{
		{"default (M=0,k=1,maxN=3)", func(*paqoc.Config) {}},
		{"M=inf", func(c *paqoc.Config) { c.M = paqoc.MInf }},
		{"topK=4", func(c *paqoc.Config) { c.TopK = 4 }},
		{"topK=16", func(c *paqoc.Config) { c.TopK = 16 }},
		{"maxN=2", func(c *paqoc.Config) { c.MaxN = 2 }},
		{"no CaseIII pruning", func(c *paqoc.Config) { c.PruneCaseIII = false }},
		{"commute extension", func(c *paqoc.Config) { c.Commute = true }},
		{"probe CaseII", func(c *paqoc.Config) { c.ProbeCaseII = true }},
	}

	var rows []AblationRow
	for _, cc := range configs {
		cfg := base()
		cc.mutate(&cfg)
		comp := paqoc.NewForProfile(nil, p.Profile, cfg)
		res, err := comp.CompileCtx(context.Background(), phys)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", cc.name, err)
		}
		rows = append(rows, AblationRow{
			Config:      cc.name,
			Latency:     res.Latency,
			CompileCost: res.CompileCost + res.OfflineCost,
			ESP:         res.ESP,
			Blocks:      res.NumBlocks,
			Iterations:  res.Iterations,
		})
	}
	return rows, nil
}

// PrintAblation renders the knob sweep.
func PrintAblation(w io.Writer, benchName string, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation — %s\n", benchName)
	fmt.Fprintf(w, "%-26s %10s %12s %8s %7s %6s\n", "config", "latency", "compile (s)", "ESP", "blocks", "iters")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %10.0f %12.2f %8.4f %7d %6d\n",
			r.Config, r.Latency, r.CompileCost, r.ESP, r.Blocks, r.Iterations)
	}
}
