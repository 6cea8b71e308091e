package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"paqoc/internal/api"
	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/route"
	"paqoc/internal/server"
	"paqoc/internal/transpile"
)

const (
	// serveBackend is a small grid, so a 2-qubit-capped GRAPE compile of a
	// 4-qubit circuit takes a fraction of a second.
	serveBackend = "xy-grid-2x2"
	// serveHot circuits take serveHotShare of the requests with Zipf
	// popularity; the rest are novel circuits, cold GRAPE misses.
	serveHot      = 12
	serveHotShare = 0.75
	// serveFidelity is every request's per-gate fidelity target.
	serveFidelity = 0.99
	// serveLagBound is how late the load generator may send a request
	// before the run is invalid.
	serveLagBound = 250 * time.Millisecond
)

// serveRequest is one scheduled request of the open loop.
type serveRequest struct {
	due time.Duration
	// key names the circuit variant: repeats of a key must report the same
	// latency_dt.
	key  string
	body []byte
	phys *circuit.Circuit
	apa  bool
}

// serveResult is what came back for one request.
type serveResult struct {
	code     int
	status   api.JobStatus
	response time.Duration // due → response
	lag      time.Duration // due → sent
	err      string
}

// serveInputs draws the request schedule from the seed: rate×seconds
// arrivals, one at a random point of each 1/rate slot; requests for a fixed
// hot set of serveHot 4-qubit circuits with Zipf(1) popularity (half of
// them for a relabelled twin, whose 2-qubit blocks hit the pulse DB as
// permutations); and a quarter of requests for a fixed pool of novel
// circuits. A quarter of the hot circuits and of the novel ones set
// apa:true.
func serveInputs(seed int64, rate, seconds float64, quick bool) (hot []serveRequest, reqs []serveRequest, err error) {
	rng := rand.New(rand.NewSource(seed))
	topo, err := device.Lookup(serveBackend)
	if err != nil {
		return nil, nil, err
	}
	mk := func(key string, c *circuit.Circuit, apa bool) (serveRequest, error) {
		// Route what the server will parse: the text form rounds angles.
		sent, err := circuit.Parse(c.String())
		if err != nil {
			return serveRequest{}, err
		}
		phys, _, err := transpile.ToPhysical(sent, topo.Topology(), route.DefaultOptions())
		if err != nil {
			return serveRequest{}, err
		}
		body, err := json.Marshal(api.CompileRequest{
			Circuit: c.String(), Grape: true, MaxN: 2, APA: apa, Mode: "sync",
			Fidelity: serveFidelity, IncludeSchedules: true,
		})
		return serveRequest{key: key, body: body, phys: phys, apa: apa}, err
	}
	nHot := serveHot
	if quick {
		nHot = 3
	}
	type hotCircuit struct {
		c   *circuit.Circuit
		apa bool
	}
	// The hot set is the same for every seed: its few circuits take most
	// requests, so drawing them by seed would make the seed, not the
	// program, set the numbers.
	hotRng := rand.New(rand.NewSource(0))
	hots := make([]hotCircuit, nHot)
	for i := range hots {
		hots[i] = hotCircuit{serveCircuit(hotRng), i%4 == 0}
		r, err := mk(fmt.Sprintf("hot%d", i), hots[i].c, hots[i].apa)
		if err != nil {
			return nil, nil, err
		}
		hot = append(hot, r)
	}
	zipf := make([]float64, nHot) // cumulative Zipf(1) weights
	for i := range zipf {
		zipf[i] = 1 / float64(i+1)
		if i > 0 {
			zipf[i] += zipf[i-1]
		}
	}
	mirror := []int{1, 0, 3, 2} // an automorphism of the 2×2 grid
	// The request count and the novel circuits are fixed as well: every run
	// sends n requests, and the novel ones are a fixed pool, each sent once.
	// A novel circuit is a cold GRAPE miss whose cost swings several-fold
	// from circuit to circuit, so a seeded pool would let the seed set the
	// tail latencies. The seed draws the schedule: each arrival's point in
	// its 1/rate slot, where the novel requests fall and in which order, and
	// which hot circuit or twin every other request asks for.
	n := max(1, int(rate*seconds))
	nNovel := int(math.Round(float64(n) * (1 - serveHotShare)))
	novelRng := rand.New(rand.NewSource(1))
	pool := make([]*circuit.Circuit, nNovel)
	for i := range pool {
		pool[i] = serveCircuit(novelRng)
	}
	novelAt := map[int]int{} // request index → pool index
	for j, k := range rng.Perm(n)[:nNovel] {
		novelAt[k] = j
	}
	order := rng.Perm(nNovel)
	for k := 0; k < n; k++ {
		at := (float64(k) + rng.Float64()) / rate
		var r serveRequest
		if j, ok := novelAt[k]; ok {
			i := order[j]
			r, err = mk(fmt.Sprintf("novel%d", i), pool[i], i%4 == 0)
		} else {
			x := rng.Float64() * zipf[nHot-1]
			h := 0
			for zipf[h] < x {
				h++
			}
			c, key := hots[h].c, fmt.Sprintf("hot%d", h)
			if rng.Intn(2) == 0 {
				c, key = relabel(c, mirror), key+"m"
			}
			r, err = mk(key, c, hots[h].apa)
		}
		if err != nil {
			return nil, nil, err
		}
		r.due = time.Duration(at * float64(time.Second))
		reqs = append(reqs, r)
	}
	return hot, reqs, nil
}

// serveCircuit draws a 4-qubit circuit of 24 gates: CX on random pairs and
// 1-qubit gates with seeded rotation angles, so novel circuits are cold.
func serveCircuit(rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(4)
	for len(c.Gates) < 24 {
		switch rng.Intn(3) {
		case 0:
			a, b := rng.Intn(4), rng.Intn(3)
			if b >= a {
				b++
			}
			c.Add("cx", a, b)
		case 1:
			c.AddParam("rz", []float64{rng.Float64() * 2 * math.Pi}, rng.Intn(4))
		default:
			c.Add([]string{"h", "sx", "t"}[rng.Intn(3)], rng.Intn(4))
		}
	}
	return c
}

// relabel maps every gate's qubit q to perm[q].
func relabel(c *circuit.Circuit, perm []int) *circuit.Circuit {
	out := circuit.New(c.NumQubits)
	for _, g := range c.Gates {
		g = g.Clone()
		for k, q := range g.Qubits {
			g.Qubits[k] = perm[q]
		}
		out.AddGate(g)
	}
	return out
}

// replica is one in-process server and its handler.
type replica struct {
	srv *server.Server
	h   http.Handler
}

func startReplica() (*replica, error) {
	s, err := server.New(server.Config{
		Backend: serveBackend,
		Logger:  obs.NewLogger(io.Discard, obs.LevelError),
	})
	if err != nil {
		return nil, err
	}
	s.Start()
	return &replica{srv: s, h: s.Handler()}, nil
}

func (r *replica) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r.srv.Shutdown(ctx)
}

// post sends one compile request straight to the handler.
func (r *replica) post(body []byte) (int, api.JobStatus, string) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body))
	r.h.ServeHTTP(rec, req)
	var resp api.CompileResponse
	if rec.Code != http.StatusOK {
		return rec.Code, resp.JobStatus, rec.Body.String()
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return rec.Code, resp.JobStatus, err.Error()
	}
	return rec.Code, resp.JobStatus, ""
}

// warm compiles every hot circuit once, two at a time, so the replay
// starts with a warm shared pulse DB; it returns each one's latency_dt.
func (r *replica) warm(hot []serveRequest) (map[string]float64, error) {
	first := map[string]float64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(hot))
	sem := make(chan struct{}, 2)
	for _, h := range hot {
		wg.Add(1)
		sem <- struct{}{}
		go func(h serveRequest) {
			defer wg.Done()
			defer func() { <-sem }()
			code, st, msg := r.post(h.body)
			if code != http.StatusOK || st.Result == nil {
				errs <- fmt.Errorf("warm-up %s: HTTP %d %s", h.key, code, msg)
				return
			}
			mu.Lock()
			first[h.key] = st.Result.LatencyDt
			mu.Unlock()
		}(h)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	return first, nil
}

// replay runs the open loop: each request is sent at its due time from
// its own goroutine, whatever is still in flight, and timed from its due
// time to its response.
func (r *replica) replay(reqs []serveRequest) ([]serveResult, time.Time, time.Duration) {
	res := make([]serveResult, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].due)
		time.Sleep(time.Until(due))
		lag := time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, st, msg := r.post(reqs[i].body)
			res[i] = serveResult{code: code, status: st, response: time.Since(due), lag: lag, err: msg}
		}(i)
	}
	wg.Wait()
	return res, start, time.Since(start)
}

// runServe is the serve_replay workload.
func runServe(ctx context.Context, opts options) (*outcome, error) {
	var hot, reqs []serveRequest
	var rep *replica
	// Set-up: draw the inputs and build and start a server; the median of
	// five, then one warm-up pass over the hot set on the kept server.
	var first map[string]float64
	setup, err := func() (time.Duration, error) {
		build, err := medianDuration(5, func() error {
			var err error
			if hot, reqs, err = serveInputs(opts.seed, opts.serveRate, opts.seconds, opts.quick); err != nil {
				return err
			}
			if rep != nil {
				if err := rep.stop(); err != nil {
					return err
				}
			}
			rep, err = startReplica()
			return err
		})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		first, err = rep.warm(hot)
		return build + time.Since(t0), err
	}()
	if err != nil {
		if rep != nil {
			_ = rep.stop() // the set-up error is the one to report
		}
		return nil, err
	}

	if !opts.trace {
		out, err := serveMeasure(ctx, opts, rep, reqs, first, nil)
		if stopErr := rep.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		// The warm-up runs on the server's workers, so set-up is scaled by
		// the slowdown probed over the replay.
		out.raw["setup_s"] = setup.Seconds()
		out.values["setup_s"] = setup.Seconds() / hostSpeed.slowdown()
		return out, nil
	}

	// Traced: the untraced replay above gives the baseline job time, then a
	// second server replays the same schedule under a CPU profile.
	bare, err := serveMeasure(ctx, opts, rep, reqs, first, nil)
	if stopErr := rep.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	if rep, err = startReplica(); err != nil {
		return nil, err
	}
	if first, err = rep.warm(hot); err != nil {
		_ = rep.stop() // the warm-up error is the one to report
		return nil, err
	}
	l := &layerRun{}
	out, err := serveMeasure(ctx, opts, rep, reqs, first, l)
	if stopErr := rep.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	l.overhead = out.values["mean_job_ms"]/bare.values["mean_job_ms"] - 1
	out.values = l.metrics()
	return out, nil
}

// serveMeasure replays the schedule on a warm replica, checks every
// response, and reports the end-to-end metrics. With a layerRun it also
// profiles the replay and collects the per-layer observations.
func serveMeasure(ctx context.Context, opts options, rep *replica, reqs []serveRequest, first map[string]float64, l *layerRun) (*outcome, error) {
	prof, err := device.Lookup(serveBackend)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}, passes: 1}
	before := rep.srv.Registry().Snapshot()
	hits0, misses0 := rep.srv.DB().Stats()
	rt0 := readRuntime()
	var cpu *cpuProfile
	if l != nil {
		if cpu, err = startCPUProfile(opts.outDir, fmt.Sprintf("%s-%d", opts.workload, opts.seed)); err != nil {
			return nil, err
		}
	}
	hostSpeed.background()
	results, start, span := rep.replay(reqs)
	hostSpeed.stop()
	rt1 := readRuntime()
	var attr *attribution
	if cpu != nil {
		if attr, err = cpu.attribute(ctx); err != nil {
			return nil, err
		}
		printAttribution(attr)
	}
	after := rep.srv.Registry().Snapshot()

	// Each request's times are scaled to the reference host speed by the
	// slowdown probed while it was answered (speed.go).
	var responseMs, compileMs, rawResponseMs, rawCompileMs, ratios, esps []float64
	var jobMs float64
	done, sloMet := 0, 0
	var lagMax time.Duration
	var sums []obs.StageSummary
	for i, r := range results {
		out.attempted++
		if r.lag > lagMax {
			lagMax = r.lag
		}
		due := start.Add(reqs[i].due)
		end := due.Add(r.response)
		responseMs = append(responseMs, ms(r.response)/hostSpeed.slowdownBetween(due, end))
		rawResponseMs = append(rawResponseMs, ms(r.response))
		if r.code != http.StatusOK || r.status.State != api.StateDone || r.status.Result == nil {
			out.failed++
			continue
		}
		res := r.status.Result
		failures := checkServed(ctx, prof, reqs[i], res, first)
		for _, f := range failures {
			out.checkFailed("request %d (%s): %s", i, reqs[i].key, f)
		}
		if len(failures) > 0 {
			out.failed++
			continue
		}
		done++
		if r.response <= opts.serveSLO {
			sloMet++
		}
		run := time.Duration(r.status.RunMs * float64(time.Millisecond))
		compileMs = append(compileMs, r.status.RunMs/hostSpeed.slowdownBetween(end.Add(-run), end))
		rawCompileMs = append(rawCompileMs, r.status.RunMs)
		jobMs += r.status.RunMs
		if strings.HasPrefix(reqs[i].key, "hot") {
			// Quality over the fixed hot set only: novel circuits differ per
			// seed and would move the guard more than the program does.
			ratios = append(ratios, res.LatencyDt/res.InitialLatencyDt)
			esps = append(esps, res.ESP)
		}
		if l != nil {
			l.queueWaitMs = append(l.queueWaitMs, r.status.QueuedMs)
			l.jobMs = append(l.jobMs, r.status.QueuedMs+r.status.RunMs)
			l.swaps += res.Swaps
			for _, st := range res.Stages {
				sums = append(sums, obs.StageSummary{Path: st.Stage, Count: st.Count, Total: time.Duration(st.Ms * float64(time.Millisecond))})
			}
		}
	}
	if lagMax > serveLagBound {
		out.invalid = fmt.Sprintf("load generator fell %v behind its schedule (bound %v)", lagMax, serveLagBound)
	}
	if done == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	out.values["circuits_per_s"] = float64(done) / span.Seconds()
	out.values["compile_ms_p50"] = quantile(compileMs, 0.5)
	out.values["compile_ms_p90"] = quantile(compileMs, 0.9)
	out.values["response_ms_p50"] = quantile(responseMs, 0.5)
	out.values["response_ms_p90"] = quantile(responseMs, 0.9)
	out.raw = map[string]float64{
		"compile_ms_p50":  quantile(rawCompileMs, 0.5),
		"compile_ms_p90":  quantile(rawCompileMs, 0.9),
		"response_ms_p50": quantile(rawResponseMs, 0.5),
		"response_ms_p90": quantile(rawResponseMs, 0.9),
	}
	out.values["slo_met_share"] = float64(sloMet) / float64(out.attempted)
	out.values["latency_ratio_geomean"] = geomean(ratios)
	out.values["esp_geomean"] = geomean(esps)
	out.values["alloc_mb_per_circuit"] = float64(rt1.allocBytes-rt0.allocBytes) / float64(done) / (1 << 20)
	out.values["peak_rss_mb"] = peakRSSMB()
	out.values["mean_job_ms"] = jobMs / float64(done)
	if l != nil {
		hits1, misses1 := rep.srv.DB().Stats()
		l.prof = attr
		l.counters = counterDelta(before, after)
		l.stages = stageTimes(sums)
		l.compiles = done
		l.paqocCompiles = done
		l.routes = done
		l.routeTime = l.stages["server.route"].total
		l.dbHits, l.dbMisses = hits1-hits0, misses1-misses0
		l.generateP50, l.generateP90 = histDeltaQuantiles(before, after, obs.StageMetric, "grape")
		l.gcShare = gcShare(rt0, rt1)
		l.rejected = l.counters["server.rejected_queue_full"] + l.counters["server.rejected_tenant_quota"]
		l.lagMaxMs = ms(lagMax)
		for _, r := range reqs {
			if strings.HasPrefix(r.key, "hot") {
				l.hotShare++
			}
			if r.apa {
				l.apaShare++
			}
		}
		l.hotShare /= float64(len(reqs))
		l.apaShare /= float64(len(reqs))
	}
	return out, nil
}

// checkServed verifies one completed job: its blocks implement the
// routed circuit (statevector), every GRAPE schedule replays to the
// fidelity target, and a repeated circuit reports its first latency.
func checkServed(ctx context.Context, prof *device.Profile, req serveRequest, res *api.Result, first map[string]float64) []string {
	var failures []string
	if !(res.ESP > 0) || !(res.LatencyDt > 0) || !(res.InitialLatencyDt > 0) {
		failures = append(failures, fmt.Sprintf("ESP %v, latency %v, baseline %v", res.ESP, res.LatencyDt, res.InitialLatencyDt))
	}
	if want, ok := first[req.key]; ok && want != res.LatencyDt {
		failures = append(failures, fmt.Sprintf("latency_dt %v, first response had %v", res.LatencyDt, want))
	}
	first[req.key] = res.LatencyDt
	flat := circuit.New(req.phys.NumQubits)
	for _, g := range res.Gates {
		gates, err := describedGates(g.Gate, req.phys.NumQubits)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		for _, gate := range gates {
			flat.AddGate(gate)
		}
		target, err := pulse.NewCustomGate(gates).Unitary()
		if err == nil {
			_, err = checkSchedule(ctx, prof, g.Qubits, target, g.Schedule, serveFidelity)
		}
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	if err := sameState(req.phys, flat); err != nil {
		failures = append(failures, err.Error())
	}
	return failures
}

// histDeltaQuantiles returns the p50 and p90 of one labelled series of a
// histogram family over the interval between two snapshots, from the
// bucket counts' difference (observations outside the interval excluded).
func histDeltaQuantiles(before, after *obs.Snapshot, family, label string) (p50, p90 float64) {
	find := func(s *obs.Snapshot) (obs.HistogramSnapshot, bool) {
		for _, se := range s.HistogramVecs[family].Series {
			if len(se.Values) == 1 && se.Values[0] == label {
				return se.HistogramSnapshot, true
			}
		}
		return obs.HistogramSnapshot{}, false
	}
	a, ok := find(after)
	if !ok {
		return 0, 0
	}
	b, _ := find(before)
	d := obs.HistogramSnapshot{Count: a.Count - b.Count, Max: a.Max}
	for i, bk := range a.Buckets {
		if i < len(b.Buckets) {
			bk.Count -= b.Buckets[i].Count
		}
		d.Buckets = append(d.Buckets, bk)
	}
	if d.Count == 0 {
		return 0, 0
	}
	return d.Quantile(0.5), d.Quantile(0.9)
}
