package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// serveSpec is one serving workload.
type serveSpec struct {
	// fleet serves through 2 shard replicas behind a scatter-gather
	// frontend; otherwise one serve.Server answers directly.
	fleet     bool
	precision quant.Precision
	// zipf draws users Zipf(zipfSkew); otherwise uniformly.
	zipf bool
	// rate is the fixed offered rate p50/p99 are measured at, well below
	// the capacity measured on the reference host (≈5000/s on both), so
	// that a model swap's cache-miss burst or a slow stretch of a shared
	// host does not tip the two connections into a queue: see README.md.
	rate float64
	// swapEvery alternates the served model between two versions with
	// Server.Swap during the measurement (0 = never).
	swapEvery time.Duration
}

const (
	zipfSkew    = 0.85
	foldinShare = 0.05
	foldinItems = 20
	// p99Limit is the latency limit a ladder rung must meet at p99 (timed
	// from due time) for its rate to count toward max_rps. It is loose
	// enough that a scheduling stall of a few tens of milliseconds on a
	// shared host does not decide the rung; a growing queue does.
	p99Limit = 50 * time.Millisecond
	// Ladder: 200·1.05^i requests/s, i < 90 (200 … ~15k).
	ladderBase  = 200
	ladderStep  = 1.05
	ladderRungs = 90
	// Every rung offers at least rungMin requests, so its p99 has ten
	// samples beyond it, and lasts at least rungSecs.
	rungMin  = 1000
	rungSecs = 1.0
	// reclimbs is how many times, after the bisection, the rung above the
	// best passing one is offered again.
	reclimbs = 3
	// latencyWindow is the stretch of the fixed-rate phase each latency
	// percentile is read over: one swap period on serve-zipf, so every
	// window absorbs one swap, and at the fixed rates 1200 requests or
	// more, so its p99 has at least 12 samples beyond it.
	latencyWindow = 2 * time.Second
	// verifyEvery samples one read in verifyEvery for the answer check.
	verifyEvery = 8
)

var (
	// The served model: YMR4 grown to a ≈27k-item catalog, k=32, trained
	// in set-up with the ALS-WR λ|Ω| convention, whose held-out RMSE falls
	// every iteration here (plain λ overfits from iteration 2 on). Its
	// second version for swaps is the iteration-2 checkpoint of the same
	// run.
	specServeModel = trainSpec{preset: "YMR4", scale: 4, k: 32, lambda: 0.1, weighted: true,
		iterations: 3, target: 0.45, floor: 0.44}

	specZipf  = serveSpec{precision: quant.F32, zipf: true, rate: 600, swapEvery: latencyWindow}
	specFleet = serveSpec{fleet: true, precision: quant.I8, rate: 600}
)

// deployment is one running serving stack on loopback listeners.
type deployment struct {
	base    string
	servers []*serve.Server
	front   *shard.Frontend
	// Span tracers of the replicas (or the single server) and of the
	// frontend; nil on an untraced deployment.
	serverTr []*rtrace.Tracer
	frontTr  *rtrace.Tracer
	stops    []func()
}

func startHTTP(h http.Handler) (string, func(), error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(lis)
	}()
	return "http://" + lis.Addr().String(), func() { srv.Close(); <-done }, nil
}

func newTracer() *rtrace.Tracer {
	return rtrace.New(rtrace.Config{Sample: 1, Capacity: 1 << 17, Slowest: -1, Process: "bench"})
}

// deploy starts the workload's serving stack with model m installed as
// version "v1". traced gives every server (and the frontend) a
// sample-everything span tracer.
func (s serveSpec) deploy(m *core.Model, rated *sparse.CSR, traced bool) (*deployment, error) {
	d := &deployment{}
	newServer := func() *serve.Server {
		cfg := serve.Config{}
		if traced {
			tr := newTracer()
			cfg.Tracer = tr
			d.serverTr = append(d.serverTr, tr)
		}
		srv := serve.New(cfg)
		srv.SetPrecision(s.precision)
		d.servers = append(d.servers, srv)
		return srv
	}
	if !s.fleet {
		srv := newServer()
		srv.Swap(m, rated, "v1")
		url, stop, err := startHTTP(srv.Handler())
		if err != nil {
			d.close()
			return nil, err
		}
		d.base, d.stops = url, append(d.stops, stop)
		return d, nil
	}
	var urls []string
	for i := 0; i < 2; i++ {
		rep, err := shard.NewReplica(newServer(), shard.ReplicaConfig{Index: i, Count: 2})
		if err != nil {
			d.close()
			return nil, err
		}
		rep.Swap(m, rated, "v1")
		url, stop, err := startHTTP(rep.Handler())
		if err != nil {
			d.close()
			return nil, err
		}
		urls, d.stops = append(urls, url), append(d.stops, stop)
	}
	fcfg := shard.FrontendConfig{Shards: urls}
	if traced {
		d.frontTr = newTracer()
		fcfg.Tracer = d.frontTr
	}
	front, err := shard.NewFrontend(fcfg)
	if err != nil {
		d.close()
		return nil, err
	}
	front.ProbeOnce(context.Background())
	if err := front.Ready(); err != nil {
		d.close()
		return nil, fmt.Errorf("fleet not ready: %w", err)
	}
	url, stop, err := startHTTP(front.Handler())
	if err != nil {
		d.close()
		return nil, err
	}
	d.front, d.base, d.stops = front, url, append(d.stops, stop)
	return d, nil
}

func (d *deployment) close() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
	for _, s := range d.servers {
		s.Close()
	}
}

// served is the set-up product: the split, both model versions, and the
// first set-up's training (for scoring its checkpoints).
type served struct {
	sp     *split
	v1, v2 *core.Model
	run    *trainRun
}

// setupServing generates and splits the data and trains the served model
// (3 iterations, checkpointed in memory); its iteration-2 checkpoint is
// the second version swaps alternate with.
func setupServing(rc *runCtx, dir string) (*served, error) {
	sp, err := makeSplit(specServeModel.preset, specServeModel.scale, rc.seed)
	if err != nil {
		return nil, err
	}
	// The served model's training is timed for train_s and
	// time_to_target_s; start it, like every timed training, from a
	// collected heap rather than wherever data generation left it.
	runtime.GC()
	run, err := specServeModel.trainOnce(sp, rc.seed, dir, false)
	if err != nil {
		return nil, err
	}
	st, err := run.loadCheckpoint(specServeModel.iterations - 1)
	if err != nil {
		return nil, err
	}
	v2 := &core.Model{K: st.K, X: st.X, Y: st.Y, Meta: run.model.Meta}
	return &served{sp: sp, v1: run.model, v2: v2, run: run}, nil
}

// genRequests draws n requests from rng: users Zipf- or uniformly
// distributed, a foldinShare of them fold-in writes carrying up to
// foldinItems of the user's training ratings.
func (s serveSpec) genRequests(rng *rand.Rand, zipf *dataset.ZipfSampler, train *sparse.CSR, n int) []request {
	out := make([]request, n)
	for i := range out {
		var u int
		if s.zipf {
			u = zipf.Draw()
		} else {
			u = rng.Intn(train.NumRows)
		}
		r := request{user: u}
		if rng.Float64() < foldinShare {
			cols, vals := train.Row(u)
			if len(cols) > 0 {
				k := min(len(cols), foldinItems)
				r.foldin = true
				r.items = append([]int32(nil), cols[:k]...)
				r.ratings = append([]float32(nil), vals[:k]...)
			}
		}
		out[i] = r
	}
	return out
}

// swapper alternates the served version every period, starting half a
// period in, until stopped, timing each Server.Swap call. Swaps land at
// fixed offsets from the start, so every run's fixed-rate phase absorbs
// the same number of post-swap cache-miss bursts.
type swapper struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	times []float64
}

func startSwapper(srv *serve.Server, sv *served, period time.Duration) *swapper {
	sw := &swapper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sw.done)
		t := time.NewTimer(period / 2)
		defer t.Stop()
		next := 2
		for {
			select {
			case <-sw.stop:
				return
			case <-t.C:
				t.Reset(period)
			}
			m, v := sv.v1, "v1"
			if next == 2 {
				m, v = sv.v2, "v2"
			}
			t0 := time.Now()
			srv.Swap(m, sv.sp.train.R, v)
			d := time.Since(t0).Seconds()
			sw.mu.Lock()
			sw.times = append(sw.times, d)
			sw.mu.Unlock()
			next = 3 - next
		}
	}()
	return sw
}

func (sw *swapper) finish() []float64 {
	close(sw.stop)
	<-sw.done
	return sw.times
}

// verifier checks sampled answers after the measurement, off the clock.
type verifier struct {
	spec  serveSpec
	sv    *served
	ref   *serve.Server // unsharded reference at the fleet's precision
	n     int
	wrong int
	first string
}

func (v *verifier) check(sched *schedule, reqs []request) error {
	for i, r := range reqs {
		if r.foldin || !sched.ok[i] || i%verifyEvery != 0 {
			continue
		}
		rep := sched.replies[i]
		var want []int
		if v.spec.fleet {
			sn := v.ref.Current()
			got, err := v.ref.ScoreTopN(context.Background(), sn, v.sv.v1.X.Row(r.user),
				serve.RatedExcluder(v.sv.sp.train.R, r.user), 10)
			if err != nil {
				return err
			}
			for _, s := range got {
				want = append(want, s.Item)
			}
		} else {
			m := v.sv.v1
			if rep.version == "v2" {
				m = v.sv.v2
			} else if rep.version != "v1" {
				v.mismatch(fmt.Sprintf("user %d answered from unknown version %q", r.user, rep.version))
				continue
			}
			want = metrics.TopN(v.sv.sp.train.R, m.X, m.Y, r.user, 10)
		}
		v.n++
		if !equalInts(want, rep.items) {
			v.mismatch(fmt.Sprintf("user %d (%s): got %v, want %v", r.user, rep.version, rep.items, want))
		}
	}
	return nil
}

func (v *verifier) mismatch(msg string) {
	v.wrong++
	if v.first == "" {
		v.first = msg
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runServing drives one serving workload: set-up, then either the
// fixed-rate phase plus the max_rps ladder (untraced), or an untraced and
// a traced fixed-rate phase on twin deployments (traced run).
func runServing(rc *runCtx, s serveSpec) (*outcome, error) {
	out := newOutcome()
	var sv *served
	var setups, trains, ttt []float64
	var dep, plain *deployment
	for begin := time.Now(); rc.moreSetups(len(setups), time.Since(begin)); {
		i := len(setups)
		// Every set-up starts from a collected heap, as in a fresh process.
		if dep != nil {
			dep.close()
		}
		dep, sv = nil, nil
		runtime.GC()
		t0 := time.Now()
		cur, err := setupServing(rc, fmt.Sprintf("serve-%d", i))
		if err != nil {
			return nil, err
		}
		dep, err = s.deploy(cur.v1, cur.sp.train.R, rc.trace)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, cur.run.wall.Seconds())
		sv = cur
		if tgt, q, err := specServeModel.targetIteration(sv.sp, cur.run); err == nil && tgt > 0 {
			if d, ok := cur.run.fs.durableAt(tgt); ok {
				ttt = append(ttt, d.Seconds())
			}
			if i == 0 {
				out.notef("served model: held-out RMSE %g first met at iteration %d (%.4f)", specServeModel.target, tgt, q)
			}
		}
		// The checkpoints are scored; do not carry them into the
		// measurement's heap.
		cur.run.fs.inner = nil
	}
	defer func() { dep.close() }()
	sp := sv.sp
	out.e2e["setup_s"] = median(setups)
	out.e2e["train_s"] = lowQuartile(trains)
	out.e2e["time_to_target_s"] = lowQuartile(ttt)
	out.check(len(ttt) == len(trains), "served model never reached held-out RMSE %g", specServeModel.target)
	rmse := metrics.RMSE(sp.test.R, sv.v1.X, sv.v1.Y)
	out.e2e["heldout_rmse"] = rmse
	out.info["recall_at_10"] = recallAt10(sp, sv.v1.X, sv.v1.Y)
	out.check(rmse <= specServeModel.floor, "served model held-out RMSE %.4f misses the floor %g", rmse, specServeModel.floor)
	out.notef("set-up: YMR4 ScaledForBench(4) seed %d: %d users × %d items, k=%d, %s",
		rc.seed, sp.train.Rows(), sp.train.Cols(), specServeModel.k, s.precision)

	if rc.trace {
		var err error
		plain, err = s.deploy(sv.v1, sp.train.R, false)
		if err != nil {
			return nil, err
		}
		defer plain.close()
	}
	ver := &verifier{spec: s, sv: sv}
	if s.fleet {
		ver.ref = serve.New(serve.Config{})
		ver.ref.SetPrecision(s.precision)
		ver.ref.Swap(sv.v1, sp.train.R, "v1")
		defer ver.ref.Close()
	}

	rng := rand.New(rand.NewSource(rc.seed + 3))
	var zipf *dataset.ZipfSampler
	if s.zipf {
		zipf = dataset.NewZipfSampler(sp.train.Rows(), zipfSkew, rc.seed+4)
	}
	clients := newClients(rc.mach.NProc)
	defer closeClients(clients)
	ctx := context.Background()
	// About half the window at the fixed rate, in an odd number of whole
	// latency windows: p99 rests on the few requests that meet a collector
	// pause or a host stall, so it needs thousands of samples, and the
	// median of an odd count is one window's figure, so two stalled
	// windows of five do not move it. An untraced run then climbs the
	// ladder; a traced run repeats the phase on the traced twin.
	nWin := 2*int(rc.window().Seconds()/4/latencyWindow.Seconds()) + 1
	// Warm the connections and the cache before anything is timed.
	for _, d := range []*deployment{dep, plain} {
		if d != nil {
			runOpenLoop(ctx, d.base, clients, s.genRequests(rng, zipf, sp.train.R, 200), s.rate, 1<<30, 1<<50)
		}
	}

	mem := startMemWatch()
	account := func(sched *schedule, reqs []request) error {
		a, f := sched.attempts()
		out.attempted += a
		out.failed += f
		for i, err := range sched.errs {
			if err != nil {
				out.noteErr(fmt.Sprintf("request %d: %v", i, err))
			}
		}
		return ver.check(sched, reqs)
	}
	measured := dep
	if plain != nil {
		measured = plain
	}
	n := int(s.rate * latencyWindow.Seconds() * float64(nWin))
	reqs := s.genRequests(rng, zipf, sp.train.R, n)
	var sw *swapper
	if s.swapEvery > 0 {
		// Swaps hit the untraced deployment: the measured one, or on a
		// traced run the untraced twin (the traced one keeps serving v1).
		sw = startSwapper(measured.servers[0], sv, s.swapEvery)
	}
	hits0, miss0 := cacheStats(measured)
	sched := runOpenLoop(ctx, measured.base, clients, reqs, s.rate, n, 0)
	hits1, miss1 := cacheStats(measured)
	if err := account(sched, reqs); err != nil {
		return nil, err
	}
	lat := summarize(sched.latencies())
	var p50s, tails []float64
	for _, w := range sched.windows(nWin) {
		p50s, tails = append(p50s, w.P50*1e3), append(tails, w.Tail*1e3)
	}
	out.e2e["p50_ms"] = median(p50s)
	out.e2e["tail_ms"] = median(tails)
	out.notef("fixed rate %g/s open loop, %d connections: %d requests, pooled p50 %.3f ms, p%g %.3f ms",
		s.rate, len(clients), lat.N, lat.P50*1e3, lat.TailQ, lat.Tail*1e3)
	out.notef("per %s window: p50 %s ms, tail %s ms", latencyWindow, fmtFloats(p50s), fmtFloats(tails))
	if h := hits1 - hits0; h+miss1-miss0 > 0 {
		out.info["cache_hit_ratio"] = float64(h) / float64(h+miss1-miss0)
	}

	if !rc.trace {
		maxRPS, rungs, err := s.ladder(ctx, dep, clients, rng, zipf, sp.train.R, account)
		if err != nil {
			return nil, err
		}
		out.e2e["throughput_per_s"] = maxRPS
		out.notef("max_rps ladder (p99 ≤ %s, no growing backlog): %s", p99Limit, rungs)
	} else {
		tReqs := s.genRequests(rng, zipf, sp.train.R, n)
		c0, m0 := cacheStats(dep)
		var ms0 runtimeSample
		ms0.read()
		tSched := runOpenLoop(ctx, dep.base, clients, tReqs, s.rate, n, 1<<40)
		var ms1 runtimeSample
		ms1.read()
		c1, m1 := cacheStats(dep)
		if err := account(tSched, tReqs); err != nil {
			return nil, err
		}
		tLat := summarize(tSched.latencies())
		out.layer["rtrace.overhead_share"] = tLat.P50/lat.P50 - 1
		out.layer["loadgen.lateness_ms"] = median(tSched.lateness()) * 1e3
		out.layer["runtime.gc_pause_s"] = (ms1.gcPause - ms0.gcPause).Seconds()
		out.layer["runtime.alloc_bytes_per_op"] = float64(ms1.alloc-ms0.alloc) / float64(len(tReqs))
		if h := c1 - c0; h+m1-m0 > 0 {
			out.layer["serve.cache_hit_ratio"] = float64(h) / float64(h+m1-m0)
		}
		if err := s.layerMetrics(rc, dep, sv, tSched, out); err != nil {
			return nil, err
		}
	}
	if sw != nil {
		swaps := sw.finish()
		if len(swaps) > 0 {
			out.layer["serve.swap_s"] = median(swaps)
		}
		out.notef("swaps during measurement: %d", len(swaps))
	}
	memStats := mem.stop()
	out.e2e["peak_heap_mb"] = memStats.peakMB
	out.info["error_rate"] = out.errorRate()
	out.check(ver.wrong == 0, "%d of %d sampled answers differ from the reference: %s", ver.wrong, ver.n, ver.first)
	out.check(ver.n > 0, "no answer was sampled for the correctness check")
	if s.fleet {
		out.notef("check: %d sampled merges item-for-item equal to an unsharded %s ScoreTopN", ver.n, s.precision)
	} else {
		out.notef("check: %d sampled answers equal metrics.TopN on the answering version", ver.n)
	}
	return out, nil
}

// ladder finds max_rps: the highest rate of the fixed ladder whose rung
// meets the p99 limit without a growing backlog, by bisection (the rule is
// monotone in the offered rate up to noise). It reports the rate that
// rung's requests were answered at.
func (s serveSpec) ladder(ctx context.Context, d *deployment, cs []*client, rng *rand.Rand,
	zipf *dataset.ZipfSampler, train *sparse.CSR, account func(*schedule, []request) error) (float64, string, error) {
	rates := ladderRates(ladderBase, ladderStep, ladderRungs)
	lo, hi := -1, len(rates)
	best := 0.0
	var log []string
	id := uint64(1 << 40)
	// rung offers rate r once and applies the acceptance rule: a rung that
	// passes returns the rate its requests were answered at, one that
	// fails 0.
	rung := func(r float64) (float64, error) {
		n := max(rungMin, int(r*rungSecs))
		reqs := s.genRequests(rng, zipf, train, n)
		allowed := int(r*p99Limit.Seconds()) + len(cs)
		sched := runOpenLoop(ctx, d.base, cs, reqs, r, 4*allowed, id)
		id += uint64(n)
		if err := account(sched, reqs); err != nil {
			return 0, err
		}
		time.Sleep(50 * time.Millisecond) // let a lost rung's backlog drain
		if !rungPasses(&sched.openLoop, r, p99Limit, len(cs)) {
			return 0, nil
		}
		return sched.completedRate(), nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r := rates[mid]
		// A rung must fail twice to count as failed: one stall of the host
		// would otherwise cut the bisection short.
		got, err := rung(r)
		if err == nil && got == 0 {
			got, err = rung(r)
		}
		if err != nil {
			return 0, "", err
		}
		log = append(log, fmt.Sprintf("%g:%v", r, got > 0))
		if got > 0 {
			lo, best = mid, got
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, strings.Join(log, " "), errors.New("even the lowest ladder rate misses the p99 limit")
	}
	// Offer the rung above the best so far a few more times, spread over
	// the rest of the phase: a neighbour's burst during the bisection can
	// only fail rungs, never pass them, so a later pass corrects it.
	for i := 0; i < reclimbs && lo+1 < len(rates); i++ {
		got, err := rung(rates[lo+1])
		if err != nil {
			return 0, "", err
		}
		log = append(log, fmt.Sprintf("+%g:%v", rates[lo+1], got > 0))
		if got > 0 {
			lo, best = lo+1, got
		}
	}
	return best, strings.Join(log, " "), nil
}

func cacheStats(d *deployment) (hits, misses uint64) {
	for _, s := range d.servers {
		h, m := s.ResponseCache().Stats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

// layerMetrics reads the traced phase's spans: server-side request self
// time, cache lookup, scan and fold-in solve; frontend hop, merge and
// fold-in; and the client-observed time not covered by the outermost
// server span (transport).
func (s serveSpec) layerMetrics(rc *runCtx, d *deployment, sv *served, sched *schedule, out *outcome) error {
	// Only spans of the traced phase's own requests count: the trace id of
	// each is the one the load generator injected.
	phase := make(map[rtrace.TraceID]bool, len(sched.ids))
	for _, id := range sched.ids {
		phase[rtrace.TraceID(id)] = true
	}
	keep := func(spans []rtrace.SpanRecord) []rtrace.SpanRecord {
		out := spans[:0]
		for _, sp := range spans {
			if phase[sp.Trace] {
				out = append(out, sp)
			}
		}
		return out
	}
	var server []rtrace.SpanRecord
	for _, tr := range d.serverTr {
		server = append(server, tr.Snapshot()...)
	}
	server = keep(server)
	front := keep(d.frontTr.Snapshot())
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}

	inServer := make(map[rtrace.SpanID]bool, len(server))
	for _, sp := range server {
		inServer[sp.ID] = true
	}
	self := selfTime(server)
	var lookup, scan, solve, handlerSelf []float64
	serverRoot := map[rtrace.TraceID]time.Duration{}
	for _, sp := range server {
		switch sp.Name {
		case "cache.lookup":
			lookup = append(lookup, sp.Dur.Seconds())
		case "scan":
			scan = append(scan, sp.Dur.Seconds())
		case "foldin.solve":
			solve = append(solve, sp.Dur.Seconds())
		}
		if !inServer[sp.Parent] {
			handlerSelf = append(handlerSelf, self[sp.ID].Seconds())
			serverRoot[sp.Trace] = sp.Dur
		}
	}
	out.layer["serve.cache_lookup_s"] = mean(lookup)
	out.layer["serve.handler_self_s"] = mean(handlerSelf)

	items := sv.v1.Y.Rows
	if s.fleet {
		items = (items + 1) / 2 // each replica scans its half of the catalog
	}
	width := map[quant.Precision]int{quant.F32: 4, quant.F16: 2, quant.I8: 1}[s.precision]
	if sc := mean(scan); sc > 0 {
		b := scanBytes(items, sv.v1.K, width)
		out.layer["serve.scan_s"] = sc
		out.layer["serve.scan_ns_per_item"] = sc * 1e9 / float64(items)
		out.layer["serve.scan_bw_frac"] = bwFrac(b, sc, rc.ceil().forWorkingSet(b))
	}

	outer := serverRoot
	if s.fleet {
		var hops, merge, foldin, spread []float64
		frontRoot := map[rtrace.TraceID]time.Duration{}
		byParent := map[rtrace.SpanID][]float64{}
		inFront := make(map[rtrace.SpanID]bool, len(front))
		for _, sp := range front {
			inFront[sp.ID] = true
		}
		for _, sp := range front {
			switch {
			case strings.HasPrefix(sp.Name, "shard"):
				hops = append(hops, sp.Dur.Seconds())
				byParent[sp.Parent] = append(byParent[sp.Parent], sp.Dur.Seconds())
			case sp.Name == "merge":
				merge = append(merge, sp.Dur.Seconds())
			case sp.Name == "foldin.solve":
				solve = append(solve, sp.Dur.Seconds())
			}
			if !inFront[sp.Parent] {
				frontRoot[sp.Trace] = sp.Dur
				if sp.Name == "foldin" {
					foldin = append(foldin, sp.Dur.Seconds())
				}
			}
		}
		for _, hs := range byParent {
			if len(hs) > 1 {
				lo, hi := hs[0], hs[0]
				for _, h := range hs {
					lo, hi = min(lo, h), max(hi, h)
				}
				spread = append(spread, hi-lo)
			}
		}
		out.layer["frontend.hop_s"] = mean(hops)
		out.layer["frontend.hop_spread_s"] = mean(spread)
		out.layer["frontend.merge_s"] = mean(merge)
		out.layer["frontend.foldin_s"] = mean(foldin)
		reg, err := exposition(d.front)
		if err != nil {
			return err
		}
		out.layer["frontend.retries"] = reg["als_shard_retries_total"]
		out.layer["frontend.partials"] = reg["als_shard_partial_total"]
		outer = frontRoot
	}
	out.layer["serve.foldin_solve_s"] = mean(solve)

	var transport []float64
	for id, svc := range sched.serviceTimes() {
		if root, ok := outer[rtrace.TraceID(id)]; ok {
			transport = append(transport, (svc - root).Seconds())
		}
	}
	out.layer["http.transport_s"] = median(transport)
	return nil
}

// exposition sums every series of each metric family in the frontend's
// Prometheus registry.
func exposition(f *shard.Frontend) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := f.Registry().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			if j := strings.LastIndexByte(line, ' '); j >= 0 {
				rest = line[j+1:]
			}
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}
