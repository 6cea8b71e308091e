package paqoc

import "paqoc/internal/obs"

// PreregisterMetrics creates the pipeline's counters and gauges up front —
// merge loop, emission, GRAPE, simulator, mining, latency model, worker
// pool and pulse database — so a metrics export carries a stable schema,
// zero-valued where a stage did not run. cmd/paqoc and the server both
// register from this one list.
func PreregisterMetrics(r *obs.Registry) {
	for _, name := range []string{
		"paqoc.merge.rounds", "paqoc.merge.candidates", "paqoc.merge.cache_hits",
		"paqoc.merge.applied", "paqoc.merge.rejected", "paqoc.merge.preprocessed",
		"paqoc.emit.blocks", "paqoc.emit.split_fallbacks",
		"grape.iterations", "grape.binsearch.probes", "grape.binsearch.missed_iterations",
		"grape.generated",
		"grape.db_hits", "grape.db_permuted_hits", "grape.warm_starts", "grape.expm",
		"pulsesim.slices", "pulsesim.expm", "pulsesim.esp_evals", "pulsesim.esp_gates",
		"mining.subcircuits_enumerated", "mining.pruned_qubit_cap", "mining.patterns",
		"latency.model.probes", "latency.model.db_hits",
		"engine.tasks", "engine.completed", "pulse.db_dedups",
		"pulse.nearest_scanned", "pulse.nearest_pruned",
		"pulse.evictions", "pulse.save_skipped_nonfinite",
	} {
		r.Counter(name)
	}
	for _, name := range []string{
		"engine.active_workers", "engine.active_workers.peak",
		"engine.queued", "engine.queued.peak",
	} {
		r.Gauge(name)
	}
}
