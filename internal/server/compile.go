package server

import (
	"context"
	"fmt"
	"time"

	"paqoc/internal/api"
	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/grape"
	"paqoc/internal/miner"
	"paqoc/internal/obs"
	"paqoc/internal/paqoc"
	"paqoc/internal/pulse"
	"paqoc/internal/qasm"
	"paqoc/internal/route"
	"paqoc/internal/transpile"
)

// parseSource validates the request and parses its circuit source.
func parseSource(req *api.CompileRequest) (*circuit.Circuit, error) {
	n := 0
	for _, set := range []bool{req.QASM != "", req.Circuit != "", req.Bench != ""} {
		if set {
			n++
		}
	}
	if n != 1 {
		return nil, fmt.Errorf("exactly one of qasm, circuit, bench must be set")
	}
	switch {
	case req.QASM != "":
		return qasm.Parse(req.QASM)
	case req.Circuit != "":
		return circuit.Parse(req.Circuit)
	default:
		spec, ok := bench.ByName(req.Bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", req.Bench)
		}
		return spec.Build(), nil
	}
}

// compile runs the full pipeline for one job. The context carries the
// job's deadline and the server's shared metrics registry plus a fresh
// per-request tracer, whose per-stage summary lands in the result.
func (s *Server) compile(ctx context.Context, j *Job) (*api.Result, error) {
	tracer := obs.NewTracer()
	o := &obs.Obs{Metrics: s.reg, Tracer: tracer}
	ctx = o.Attach(ctx)
	// The job's event ring rides the context into the pipeline: paqoc
	// stages and GRAPE convergence samples publish to it (served live by
	// GET /v1/jobs/{id}/events).
	ctx = obs.WithEvents(ctx, j.events)
	ctx, span := obs.StartSpan(ctx, "server.job")
	span.SetAttr("job", j.ID)

	req := j.req
	logical := j.logical
	topo := j.profile.Topology()
	db := s.dbFor(j.profile)
	_, routeSpan := obs.StartSpan(ctx, "server.route")
	routeStart := time.Now()
	phys, routeRes, err := transpile.ToPhysical(logical, topo, route.DefaultOptions())
	j.events.PublishStage("route", time.Since(routeStart))
	routeSpan.End()
	if err != nil {
		span.End()
		return nil, err
	}
	if s.miner != nil {
		// Feed the offline miner the physical circuit — the same form the
		// compile-time APA pass mines, so cross-request patterns share
		// canonical signatures with per-request ones. Non-blocking.
		s.miner.Observe(miner.Backend{
			Profile: j.profile,
			DB:      db,
			Remote:  s.remoteFor(j.profile),
		}, phys)
	}

	cfg := paqoc.DefaultConfig()
	cfg.ProbeCaseII = false
	cfg.Workers = s.jobWorkers(req)
	if req.MaxN > 0 {
		cfg.MaxN = req.MaxN
	}
	if req.Fidelity > 0 {
		cfg.FidelityTarget = req.Fidelity
	}
	if req.APA {
		cfg.M = paqoc.MInf
	}
	if req.MinSupport > 0 {
		cfg.MinSupport = req.MinSupport
		cfg.Mining.MinSupport = req.MinSupport
	}

	var gen pulse.Generator
	if req.Grape {
		g := grape.NewGenerator(grape.DefaultOptions())
		g.Topo = topo
		g.DB = db // shared warm database: cross-request hits and dedups
		g.System = j.profile.SystemBuilder()
		// In a multi-replica deployment, true misses consult the key's
		// owner replica before optimizing, and fresh pulses are published
		// back to it (nil outside a cluster).
		g.Remote = s.remoteFor(j.profile)
		gen = g
	}
	comp := paqoc.NewForProfile(gen, j.profile, cfg)
	res, err := comp.CompileCtx(ctx, phys)
	span.End()
	if err != nil {
		return nil, err
	}

	out := &api.Result{
		Qubits:           logical.NumQubits,
		LogicalGates:     len(logical.Gates),
		PhysicalGates:    len(phys.Gates),
		Swaps:            routeRes.SwapCount,
		Blocks:           res.NumBlocks,
		APAPatterns:      len(res.APASelections),
		LatencyDt:        res.Latency,
		InitialLatencyDt: res.InitialLatency,
		ESP:              res.ESP,
		CompileCostSec:   res.CompileCost,
		OfflineCostSec:   res.OfflineCost,
		WallMs:           float64(res.WallTime) / float64(time.Millisecond),
		DBEntries:        db.Len(),
	}
	if res.InitialLatency > 0 {
		out.ReductionPct = 100 * (1 - res.Latency/res.InitialLatency)
	}
	for _, b := range res.Blocks.Blocks {
		gr := api.GateResult{
			Gate:   b.Custom().Describe(),
			Qubits: b.Qubits,
			APA:    b.APA,
		}
		if b.Gen != nil {
			gr.LatencyDt = b.Gen.Latency
			gr.Fidelity = b.Gen.Fidelity
			gr.CacheHit = b.Gen.CacheHit
			if req.IncludeSchedules {
				gr.Schedule = b.Gen.Schedule
			}
		}
		out.Gates = append(out.Gates, gr)
	}
	for _, st := range tracer.Summary() {
		out.Stages = append(out.Stages, api.Stage{
			Stage: st.Path,
			Count: st.Count,
			Ms:    float64(st.Total) / float64(time.Millisecond),
		})
	}
	return out, nil
}
