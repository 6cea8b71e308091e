package paqoc

import (
	"context"
	"errors"
	"sort"

	"paqoc/internal/critical"
	"paqoc/internal/engine"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// optimize runs Algorithm 1: iteratively rank two-block merge candidates by
// their critical-path reduction and apply the top-k, preceded each round by
// the Observation-1 pre-processing merges, until no merge improves the
// circuit latency.
//
// Ranking uses the paper's O(1) path formulas (§V-A): the old path through
// the pair is to[i] + from[j]; the new one threads every predecessor and
// successor of the merged block, to_in + L(merged) + from_out. The merged
// latency comes from the analytical model (or a generator probe for
// Case II) and is cached per block pair, so an iteration costs O(V + E).
// Uncached merged-latency probes fan out on the shared worker pool
// (Config.Workers) into per-candidate slots, then scoring runs serially
// over the filled slots — so the ranking is identical for any worker
// count. Each applied merge is re-validated with an exact what-if
// critical path, enforcing the monotonic-decrease contract.
//
// Per-round observability (all no-ops without a registry in ctx):
// paqoc.merge.rounds, .candidates (scored), .cache_hits (labCache),
// .applied, .rejected (ranked above the cut but failed the exact
// monotonicity or validity re-check), and the paqoc.merge.score histogram
// of predicted critical-path reductions.
func (cp *Compiler) optimize(ctx context.Context, bc *critical.BlockCircuit) (int, error) {
	const eps = 1e-9
	reg := obs.MetricsFrom(ctx)
	roundCtr := reg.Counter("paqoc.merge.rounds")
	candCtr := reg.Counter("paqoc.merge.candidates")
	cacheCtr := reg.Counter("paqoc.merge.cache_hits")
	appliedCtr := reg.Counter("paqoc.merge.applied")
	rejectedCtr := reg.Counter("paqoc.merge.rejected")
	scoreHist := reg.Histogram("paqoc.merge.score", nil)

	labCache := map[[2]*critical.Block]float64{}
	iters := 0

	for iters < cp.Cfg.MaxIterations {
		iters++
		roundCtr.Inc()

		if err := cp.preprocess(ctx, bc); err != nil {
			return iters, err
		}

		cands := bc.Candidates(cp.Cfg.MaxN, cp.Cfg.PruneCaseIII)
		if len(cands) == 0 {
			break
		}
		dag := bc.DAG()
		w := bc.Weights()
		to := dag.LongestPathTo(w)
		from := dag.LongestPathFrom(w)

		type scoredCand struct {
			a, b  *critical.Block
			score float64
		}
		var scored []scoredCand
		candCtr.Add(int64(len(cands)))
		// Rank uncached candidates on the worker pool: each probe is an
		// independent analytical-model call, and each task writes only its
		// own slot of labs, so collection is order-stable and the scored
		// list below is identical for any worker count.
		labs := make([]float64, len(cands))
		var uncached []int
		for ci := range cands {
			cand := &cands[ci]
			key := [2]*critical.Block{bc.Blocks[cand.I], bc.Blocks[cand.J]}
			if lab, ok := labCache[key]; ok {
				cacheCtr.Inc()
				labs[ci] = lab
			} else {
				uncached = append(uncached, ci)
			}
		}
		if len(uncached) > 0 {
			g, _ := engine.WithContext(ctx, cp.workers())
			for _, ci := range uncached {
				ci := ci
				g.Go(func(ctx context.Context) error {
					lab, err := cp.candidateLatency(ctx, bc, &cands[ci])
					labs[ci] = lab
					return err
				})
			}
			if err := g.Wait(); err != nil {
				return iters, err
			}
			for _, ci := range uncached {
				cand := &cands[ci]
				labCache[[2]*critical.Block{bc.Blocks[cand.I], bc.Blocks[cand.J]}] = labs[ci]
			}
		}
		for ci := range cands {
			cand := cands[ci]
			lab := labs[ci]
			pathOld := to[cand.I] + from[cand.J]
			var toIn, fromOut float64
			for _, p := range dag.Preds[cand.I] {
				if to[p] > toIn {
					toIn = to[p]
				}
			}
			for _, p := range dag.Preds[cand.J] {
				if p != cand.I && to[p] > toIn {
					toIn = to[p]
				}
			}
			for _, s := range dag.Succs[cand.J] {
				if from[s] > fromOut {
					fromOut = from[s]
				}
			}
			for _, s := range dag.Succs[cand.I] {
				if s != cand.J && from[s] > fromOut {
					fromOut = from[s]
				}
			}
			score := pathOld - (toIn + lab + fromOut)
			if score > eps {
				scoreHist.Observe(score)
				scored = append(scored, scoredCand{a: bc.Blocks[cand.I], b: bc.Blocks[cand.J], score: score})
			}
		}
		if len(scored) == 0 {
			break
		}
		sort.SliceStable(scored, func(i, j int) bool { return scored[i].score > scored[j].score })

		// Walk the ranked list and apply up to top-k merges that survive
		// the exact monotonicity check ("if customized_gate is no longer
		// valid then continue", Algorithm 1 line 16). Indices shift after
		// each merge, so candidates are tracked by block identity.
		applied := 0
		usedBlocks := map[*critical.Block]bool{}
		curCP := bc.CriticalPath()
		for _, cand := range scored {
			if applied >= cp.Cfg.TopK {
				break
			}
			if usedBlocks[cand.a] || usedBlocks[cand.b] {
				continue
			}
			i, j := blockIndex(bc, cand.a), blockIndex(bc, cand.b)
			if i < 0 || j < 0 {
				continue
			}
			if i > j {
				i, j = j, i
			}
			if !bc.ValidMerge(i, j, cp.Cfg.MaxN) {
				rejectedCtr.Inc()
				continue
			}
			m := critical.Merge(bc.Blocks[i], bc.Blocks[j])
			lab, err := cp.applyLatency(ctx, m)
			if errors.Is(err, pulse.ErrFidelityUnreachable) {
				rejectedCtr.Inc()
				continue // the Case II probe cannot realize this merge
			}
			if err != nil {
				return iters, err
			}
			if bc.CPIfMerged(i, j, lab) >= curCP-eps {
				rejectedCtr.Inc()
				continue // the estimate was optimistic; skip this merge
			}
			usedBlocks[bc.Blocks[i]] = true
			usedBlocks[bc.Blocks[j]] = true
			bc.ReplaceMerge(i, j, m, lab, nil)
			curCP = bc.CriticalPath()
			applied++
			appliedCtr.Inc()
		}
		if applied == 0 {
			break
		}
	}
	return iters, nil
}

// preprocess applies all Observation-1 merges (nested qubit sets) to a
// fixed point. Merges applied here count toward paqoc.merge.preprocessed,
// separate from the ranked loop's paqoc.merge.applied.
func (cp *Compiler) preprocess(ctx context.Context, bc *critical.BlockCircuit) error {
	preCtr := obs.MetricsFrom(ctx).Counter("paqoc.merge.preprocessed")
	for {
		pre := bc.PreprocessCandidates(cp.Cfg.MaxN)
		if len(pre) == 0 {
			return nil
		}
		cand := pre[0]
		if !bc.ValidMerge(cand.I, cand.J, cp.Cfg.MaxN) {
			// Structural conditions should guarantee validity; fail safe.
			return nil
		}
		m := critical.Merge(bc.Blocks[cand.I], bc.Blocks[cand.J])
		lat, err := cp.rank(ctx, m)
		if err != nil {
			return err
		}
		bc.ReplaceMerge(cand.I, cand.J, m, lat, nil)
		preCtr.Inc()
	}
}

// candidateLatency estimates the merged latency for ranking, always via
// the analytical model — the observations of §III-B exist precisely so
// the search can rank without generating pulses.
func (cp *Compiler) candidateLatency(ctx context.Context, bc *critical.BlockCircuit, cand *critical.Candidate) (float64, error) {
	return cp.rank(ctx, critical.Merge(bc.Blocks[cand.I], bc.Blocks[cand.J]))
}

// applyLatency supplies the latency used when a merge is actually applied.
// With ProbeCaseII (the paper's §V-A probe: "We need to perform the
// merging of A and C to get L(AC)"), the real generator produces the pulse
// now; the result lands in its database, so the final emission pass serves
// it as a free hit. Probing only applied merges keeps probe cost
// proportional to merges performed rather than candidates ranked.
func (cp *Compiler) applyLatency(ctx context.Context, m *critical.Block) (float64, error) {
	if cp.Cfg.ProbeCaseII && cp.Gen != cp.Ranker {
		g, err := cp.Gen.GenerateCtx(ctx, m.Custom(), cp.Cfg.FidelityTarget)
		if err != nil {
			return 0, err
		}
		cp.probeCost += g.Cost
		return g.Latency, nil
	}
	return cp.rank(ctx, m)
}

func blockIndex(bc *critical.BlockCircuit, b *critical.Block) int {
	for i, x := range bc.Blocks {
		if x == b {
			return i
		}
	}
	return -1
}
