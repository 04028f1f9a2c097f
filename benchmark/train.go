package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rtrace"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// trainSpec is one training configuration. Every workload sets λ
// explicitly: core.Config's zero λ is 0, not the 0.1 its comment claims.
type trainSpec struct {
	preset     string
	scale      float64
	k          int
	lambda     float32
	weighted   bool // ALS-WR λ|Ω| regularization
	iterations int
	implicit   bool
	alpha      float32
	solver     host.Solver
	// dist trains with shard.Train over 2 in-process workers instead of
	// core.Train.
	dist bool
	// target is the held-out quality a checkpoint must reach for
	// time_to_target_s: RMSE at most target (explicit) or recall@10 at
	// least target (implicit).
	target float64
	// floor is the final model's quality floor, the same measure and
	// direction as target. Missing it fails the run.
	floor float64
}

const testFrac = 0.1

var (
	specExplicit = trainSpec{preset: "MVLE", scale: 0.3, k: 16, lambda: 0.1, iterations: 10,
		target: 0.52, floor: 0.51}
	specImplicit = trainSpec{preset: "MVLE", scale: 0.05, k: 64, lambda: 0.1, iterations: 10,
		implicit: true, alpha: 5, solver: host.SolverCG, target: 0.045, floor: 0.04}
	specDist = trainSpec{preset: "MVLE", scale: 0.3, k: 16, lambda: 0.1, iterations: 10,
		dist: true, target: 0.52, floor: 0.51}
)

// split is one generated dataset with its held-out part, generated and
// split exactly as shard.DataSpec.Load does for the same seed, so
// in-process workers rebuild byte-identical training data.
type split struct {
	train, test *sparse.Matrix
	evalUsers   []int // sampled users with held-out items, for recall@10
}

const recallUsers = 500

func makeSplit(preset string, scale float64, seed int64) (*split, error) {
	p, err := dataset.PresetByName(preset)
	if err != nil {
		return nil, err
	}
	ds := p.ScaledForBench(scale).Generate(seed)
	train, test, err := dataset.Split(ds.Matrix, testFrac, seed+1)
	if err != nil {
		return nil, err
	}
	var users []int
	for u := 0; u < test.Rows(); u++ {
		if cols, _ := test.R.Row(u); len(cols) > 0 {
			users = append(users, u)
		}
	}
	rng := rand.New(rand.NewSource(seed + 2))
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	if len(users) > recallUsers {
		users = users[:recallUsers]
	}
	return &split{train: train, test: test, evalUsers: users}, nil
}

// heldoutRMSE is the explicit model's RMSE on the held-out ratings; for an
// implicit model it is the RMSE of x·y against the unit preference of every
// held-out interaction, the pointwise error the implicit objective fits.
func heldoutRMSE(sp *split, x, y *linalg.Dense, implicit bool) float64 {
	if !implicit {
		return metrics.RMSE(sp.test.R, x, y)
	}
	var sum float64
	n := 0
	r := sp.test.R
	for u := 0; u < r.NumRows; u++ {
		cols, _ := r.Row(u)
		for _, c := range cols {
			d := 1 - linalg.Dot(x.Row(u), y.Row(int(c)))
			sum += d * d
			n++
		}
	}
	return math.Sqrt(sum / float64(n))
}

// recallAt10 is the macro-averaged recall@10 over the sampled users: every
// held-out item counts as relevant, already-rated training items are
// excluded from the ranking.
func recallAt10(sp *split, x, y *linalg.Dense) float64 {
	var sum float64
	for _, u := range sp.evalUsers {
		cols, _ := sp.test.R.Row(u)
		rel := make(map[int]bool, len(cols))
		for _, c := range cols {
			rel[int(c)] = true
		}
		hits := 0
		for _, it := range metrics.TopN(sp.train.R, x, y, u, 10) {
			if rel[it] {
				hits++
			}
		}
		sum += float64(hits) / float64(len(rel))
	}
	return sum / float64(len(sp.evalUsers))
}

// quality scores factors by the spec's target measure: recall@10 for
// implicit, held-out RMSE for explicit.
func (s trainSpec) quality(sp *split, x, y *linalg.Dense) float64 {
	if s.implicit {
		return recallAt10(sp, x, y)
	}
	return metrics.RMSE(sp.test.R, x, y)
}

// meets reports whether quality v is at least as good as want.
func (s trainSpec) meets(v, want float64) bool {
	if s.implicit {
		return v >= want
	}
	return v <= want
}

// trainRun is one completed training.
type trainRun struct {
	wall    time.Duration
	fs      *timingFS
	ckptDir string
	model   *core.Model
	// Traced runs only.
	rec    *obs.TrainRecorder
	spans  []rtrace.SpanRecord
	xbytes int64 // shard exchange bytes
}

// trainOnce runs one fixed-iteration training with per-iteration
// checkpoints through a timing FS. traced attaches the program's own
// instrumentation: the TrainRecorder for core.Train, the span tracer for
// shard.Train.
func (s trainSpec) trainOnce(sp *split, seed int64, dir string, traced bool) (*trainRun, error) {
	run := &trainRun{ckptDir: dir}
	start := time.Now()
	// Checkpoints go to memory rather than the local disk, whose fsync
	// latency on a shared host varies by orders of magnitude between runs
	// and would swamp every other timing; encoding and writing the
	// checkpoint stay on the blocking path.
	run.fs = newTimingFS(checkpoint.NewMemFS(), start)
	if s.dist {
		cfg := shard.TrainerConfig{
			Workers: 2, Threads: 1,
			K: s.k, Lambda: s.lambda, WeightedLambda: s.weighted, Iterations: s.iterations, Seed: seed,
			UseRecommended: true,
			Data:           shard.DataSpec{Preset: s.preset, Scale: s.scale, TestFrac: testFrac, Seed: seed},
			CheckpointDir:  dir, CheckpointEvery: 1, CheckpointKeep: s.iterations + 1, CheckpointFS: run.fs,
		}
		if traced {
			cfg.Tracer = rtrace.New(rtrace.Config{Sample: 1, Capacity: 1 << 14, Slowest: -1, Process: "bench"})
		}
		m, info, err := shard.Train(sp.train, cfg)
		run.wall = time.Since(start)
		if err != nil {
			return nil, err
		}
		run.model, run.xbytes = m, info.BroadcastBytes
		run.spans = cfg.Tracer.Snapshot()
	} else {
		cfg := s.coreConfig(seed)
		cfg.CheckpointDir, cfg.CheckpointEvery, cfg.CheckpointKeep, cfg.CheckpointFS =
			dir, 1, s.iterations+1, run.fs
		if traced {
			run.rec = obs.NewTrainRecorder()
			cfg.Obs = run.rec
		}
		m, _, err := core.Train(sp.train, cfg)
		run.wall = time.Since(start)
		if err != nil {
			return nil, err
		}
		run.model = m
	}
	return run, nil
}

func (s trainSpec) coreConfig(seed int64) core.Config {
	return core.Config{
		K: s.k, Lambda: s.lambda, WeightedLambda: s.weighted, Iterations: s.iterations, Seed: seed,
		UseRecommended: true, Implicit: s.implicit, Alpha: s.alpha, Solver: s.solver,
	}
}

// sameFactors reports whether both factor matrices match bit for bit.
func sameFactors(a, b *core.Model) bool {
	eq := func(p, q *linalg.Dense) bool {
		if p.Rows != q.Rows || p.Cols != q.Cols {
			return false
		}
		for i, v := range p.Data {
			if math.Float32bits(v) != math.Float32bits(q.Data[i]) {
				return false
			}
		}
		return true
	}
	return eq(a.X, b.X) && eq(a.Y, b.Y)
}

// loadCheckpoint reads iteration it's checkpoint back from the run's FS.
func (r *trainRun) loadCheckpoint(it int) (*checkpoint.State, error) {
	return checkpoint.Load(r.fs, filepath.Join(r.ckptDir, checkpoint.FileName(it)))
}

// targetIteration scores the run's checkpoints in order and returns the
// first iteration whose factors meet the target, with its quality.
func (s trainSpec) targetIteration(sp *split, r *trainRun) (int, float64, error) {
	for it := 1; it <= s.iterations; it++ {
		st, err := r.loadCheckpoint(it)
		if err != nil {
			return 0, 0, err
		}
		q := s.quality(sp, st.X, st.Y)
		if s.meets(q, s.target) {
			return it, q, nil
		}
	}
	return 0, 0, nil
}

// runTraining drives one training workload: repeated set-ups, trainings
// until the measurement window closes, then scoring and correctness
// checks.
func runTraining(rc *runCtx, s trainSpec) (*outcome, error) {
	out := newOutcome()
	var sp *split
	var setups []float64
	for begin := time.Now(); rc.moreSetups(len(setups), time.Since(begin)); {
		// Every set-up starts from a collected heap, as in a fresh process.
		sp = nil
		runtime.GC()
		t0 := time.Now()
		cur, err := makeSplit(s.preset, s.scale, rc.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sp = cur
	}
	out.e2e["setup_s"] = median(setups)
	out.notef("set-up: %s ScaledForBench(%g) seed %d: %d×%d, %d training ratings, %d held out",
		s.preset, s.scale, rc.seed, sp.train.Rows(), sp.train.Cols(), sp.train.NNZ(), sp.test.NNZ())

	// The warm-up training is not timed: its checkpoints fix the iteration
	// that first meets the target, its model is scored for quality, and
	// every timed training must reproduce its factors bit for bit. On
	// train-dist it is a single-process core.Train of the same config, so
	// that check is the pinned invariant: every distributed training is
	// bit-identical to core.Train.
	ref := s
	ref.dist = false
	warm, err := ref.trainOnce(sp, rc.seed, "ckpt-warm", false)
	if err != nil {
		return nil, fmt.Errorf("warm-up training: %w", err)
	}
	mismatch := "training %d produced different factors than the warm-up"
	if s.dist {
		mismatch = "distributed training %d produced different factors than single-process core.Train"
	}
	tgtIt, tgtQ, err := s.targetIteration(sp, warm)
	if err != nil {
		return nil, fmt.Errorf("scoring checkpoints: %w", err)
	}
	out.check(tgtIt > 0, "target %s %g never reached in %d iterations", s.targetName(), s.target, s.iterations)
	finalState, err := warm.loadCheckpoint(s.iterations)
	if err != nil {
		return nil, err
	}
	warm.fs.inner = nil

	mem := startMemWatch()
	var runs, traced []*trainRun
	var untracedWall, tracedWall []float64
	deadline := time.Now().Add(rc.window())
	for n := 0; n < minTrainings || time.Now().Before(deadline); n++ {
		// In a traced run every other training goes without instrumentation,
		// so the instrumentation's own cost can be read off the pair.
		withTrace := rc.trace && n%2 == 0
		out.attempted++
		// Start every training from a collected heap, as a fresh process
		// would, so where the collector lands does not carry over.
		runtime.GC()
		r, err := s.trainOnce(sp, rc.seed, fmt.Sprintf("ckpt-%d", n), withTrace)
		if err != nil {
			out.failed++
			out.check(false, "training %d failed: %v", n, err)
			continue
		}
		out.check(sameFactors(r.model, warm.model), mismatch, n)
		// Only the timings are kept, so retained models and checkpoints do
		// not inflate the heap the next training is measured with.
		r.model, r.fs.inner = nil, nil
		runs = append(runs, r)
		if withTrace {
			traced = append(traced, r)
			tracedWall = append(tracedWall, r.wall.Seconds())
		} else {
			untracedWall = append(untracedWall, r.wall.Seconds())
		}
	}
	memStats := mem.stop()
	if len(runs) == 0 {
		return out, nil
	}

	// The iterations of one training share its data, heap and host
	// conditions, so they are not independent samples: each training
	// contributes its mean and its slowest iteration, and the run reports
	// the lower quartile of each across trainings, as it does the wall
	// times.
	var walls, ttt, meanIt, slowIt []float64
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		if d, ok := r.fs.durableAt(tgtIt); ok {
			ttt = append(ttt, d.Seconds())
		}
		var sum, slow float64
		its := r.fs.iterationDurations(s.iterations)
		for _, d := range its {
			sum, slow = sum+d, max(slow, d)
		}
		if len(its) > 0 {
			meanIt, slowIt = append(meanIt, sum/float64(len(its))), append(slowIt, slow)
		}
	}
	out.e2e["train_s"] = lowQuartile(walls)
	out.e2e["time_to_target_s"] = lowQuartile(ttt)
	out.e2e["p50_ms"] = lowQuartile(meanIt) * 1e3
	out.e2e["tail_ms"] = lowQuartile(slowIt) * 1e3
	rows := float64(sp.train.Rows()+sp.train.Cols()) * float64(s.iterations)
	out.e2e["throughput_per_s"] = rows / lowQuartile(walls)
	out.e2e["peak_heap_mb"] = memStats.peakMB
	rmse := heldoutRMSE(sp, warm.model.X, warm.model.Y, s.implicit)
	recall := recallAt10(sp, warm.model.X, warm.model.Y)
	out.e2e["heldout_rmse"] = rmse
	out.info["recall_at_10"] = recall
	out.info["error_rate"] = out.errorRate()
	out.notef("trainings: %d, wall %s; slowest iteration %s", len(runs), fmtFloats(walls), fmtFloats(slowIt))
	out.notef("target: %s %g first met at iteration %d (%.4f)", s.targetName(), s.target, tgtIt, tgtQ)

	final := rmse
	if s.implicit {
		final = recall
	}
	out.check(s.meets(final, s.floor), "final %s %.4f misses the floor %g", s.targetName(), final, s.floor)
	if s.dist {
		out.notef("check: every distributed training bit-identical to core.Train")
	}

	if rc.trace {
		out.layer["runtime.gc_pause_s"] = memStats.gcPause.Seconds()
		out.layer["runtime.alloc_bytes_per_op"] = float64(memStats.allocBytes) / float64(len(runs))
		out.layer["rtrace.overhead_share"] = median(tracedWall)/median(untracedWall) - 1
		if err := s.layerMetrics(rc, sp, traced, finalState, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s trainSpec) targetName() string {
	if s.implicit {
		return "recall@10"
	}
	return "held-out RMSE"
}

// layerMetrics fills the per-layer metrics from the traced trainings: the
// TrainRecorder's stage and half records for core.Train, the span tree for
// shard.Train, the timing FS for checkpoint I/O, and direct timing of the
// checkpoint codec.
func (s trainSpec) layerMetrics(rc *runCtx, sp *split, traced []*trainRun, final *checkpoint.State, out *outcome) error {
	var s12, s2, s3, rowsPS, busy, driver, save, fsync, ckBytes []float64
	var xbytes, compute, gather, bcast, straggle, firstHalf []float64
	for _, r := range traced {
		fs, nb := r.fs.fsyncAndBytes()
		fsync = append(fsync, fs.Seconds())
		ckBytes = append(ckBytes, float64(nb))
		if r.rec != nil {
			h, err := readHalves(r.rec)
			if err != nil {
				return err
			}
			s12 = append(s12, h.stage["s1+s2"])
			s2 = append(s2, h.stage["s2"])
			s3 = append(s3, h.stage["s3"])
			rowsPS = append(rowsPS, h.rows/h.halfSecs)
			busy = append(busy, h.busySecs/h.workerSecs)
			driver = append(driver, r.wall.Seconds()-h.halfSecs)
			save = append(save, h.saveSecs)
		}
		if s.dist {
			d := shardSpans(r.spans)
			xbytes = append(xbytes, float64(r.xbytes))
			compute = append(compute, d.compute)
			gather = append(gather, d.gather)
			bcast = append(bcast, d.broadcast)
			straggle = append(straggle, d.straggler)
			firstHalf = append(firstHalf, d.firstHalf)
		}
	}
	put := func(name string, xs []float64) {
		if len(xs) > 0 {
			out.layer[name] = median(xs)
		}
	}
	put("host.s12_s", s12)
	put("host.s2_s", s2)
	put("host.s3_s", s3)
	put("host.rows_per_s", rowsPS)
	put("host.worker_busy_share", busy)
	put("core.driver_s", driver)
	put("checkpoint.save_s", save)
	put("checkpoint.fsync_s", fsync)
	put("checkpoint.bytes", ckBytes)
	put("shard.exchange_bytes", xbytes)
	put("shard.worker_compute_s", compute)
	put("shard.gather_wait_s", gather)
	put("shard.broadcast_s", bcast)
	put("shard.straggler_s", straggle)
	put("shard.first_half_s", firstHalf)

	// Computed bytes the S1/S2 gather moves over the whole training, and
	// that as a share of the ceiling for the factors' working set, given
	// the gather stage's summed worker seconds: the fused s1+s2 stage on
	// the explicit path, s2 on the implicit one (its S1 is the shared Gram).
	b := s12Bytes(sp.train.NNZ(), s.k) * 2 * float64(s.iterations)
	out.layer["linalg.s12_bytes"] = b
	ws := float64(sp.train.Rows()+sp.train.Cols()) * float64(s.k) * 4
	if secs := out.layer["host.s12_s"] + out.layer["host.s2_s"]; secs > 0 {
		out.layer["linalg.s12_bw_frac"] = bwFrac(b, secs, rc.ceil().forWorkingSet(ws))
	}

	// Codec throughput on the run's final state.
	enc, dec, err := codecMBps(final)
	if err != nil {
		return err
	}
	out.layer["checkpoint.encode_mbps"] = enc
	out.layer["checkpoint.decode_mbps"] = dec
	return nil
}

// halves aggregates one TrainRecorder's event log.
type halves struct {
	stage                map[string]float64 // stage → summed worker seconds
	rows, halfSecs       float64
	busySecs, workerSecs float64
	saveSecs             float64
}

func readHalves(rec *obs.TrainRecorder) (*halves, error) {
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	h := &halves{stage: map[string]float64{}}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev obs.RunEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("train recorder event: %w", err)
		}
		switch ev.Event {
		case "half":
			secs := ev.DurMS / 1e3
			h.halfSecs += secs
			h.rows += float64(ev.Rows)
			for name, ms := range ev.StageMS {
				h.stage[name] += ms / 1e3
			}
			for _, w := range ev.Workers {
				h.busySecs += w.BusyMS / 1e3
			}
			h.workerSecs += secs * float64(len(ev.Workers))
		case "checkpoint":
			if ev.Op == "save" {
				h.saveSecs += ev.DurMS / 1e3
			}
		}
	}
	if h.halfSecs == 0 || h.workerSecs == 0 {
		return nil, fmt.Errorf("train recorder logged no half iterations")
	}
	return h, sc.Err()
}

// exchange is the per-training exchange breakdown read off shard.Train's
// span tree: coordinator gather (waiting for the workers' shards) and
// broadcast, the spread between the first and the last worker's shard
// arriving in each half, workers' compute, and the first half whole
// (which includes each worker loading its data).
type exchange struct {
	compute, gather, broadcast, straggler, firstHalf float64
}

func shardSpans(spans []rtrace.SpanRecord) exchange {
	byID := make(map[rtrace.SpanID]rtrace.SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// owner walks up to the span that roots the span's process: "train"
	// for the coordinator, "worker<r>" for a worker (whose root is itself a
	// child of the coordinator's, through the propagated context).
	owner := func(s rtrace.SpanRecord) string {
		for s.Name != "train" && !strings.HasPrefix(s.Name, "worker") {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s.Name
	}
	var e exchange
	waits := map[rtrace.SpanID][]rtrace.SpanRecord{}
	workers := map[string]bool{}
	for _, s := range spans {
		coord := owner(s) == "train"
		switch {
		case coord && s.Name == "gather":
			e.gather += s.Dur.Seconds()
		case coord && s.Name == "broadcast":
			e.broadcast += s.Dur.Seconds()
		case coord && s.Name == "iter1/x":
			e.firstHalf = s.Dur.Seconds()
		case coord && strings.HasPrefix(s.Name, "wait worker"):
			waits[s.Parent] = append(waits[s.Parent], s)
		case !coord && s.Name == "compute":
			e.compute += s.Dur.Seconds()
			workers[owner(s)] = true
		}
	}
	if len(workers) > 0 {
		e.compute /= float64(len(workers))
	}
	for _, ws := range waits {
		var lo, hi time.Time
		for i, w := range ws {
			end := w.Start.Add(w.Dur)
			if i == 0 || end.Before(lo) {
				lo = end
			}
			if i == 0 || end.After(hi) {
				hi = end
			}
		}
		e.straggler += hi.Sub(lo).Seconds()
	}
	return e
}

// codecMBps times checkpoint.Encode and checkpoint.Decode of st and returns
// each as MB/s of encoded bytes (median of a few passes).
func codecMBps(st *checkpoint.State) (enc, dec float64, err error) {
	var buf bytes.Buffer
	var encs, decs []float64
	for i := 0; i < 5; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := checkpoint.Encode(&buf, st); err != nil {
			return 0, 0, err
		}
		encs = append(encs, float64(buf.Len())/time.Since(t0).Seconds()/1e6)
		t1 := time.Now()
		if _, err := checkpoint.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			return 0, 0, err
		}
		decs = append(decs, float64(buf.Len())/time.Since(t1).Seconds()/1e6)
	}
	return median(encs), median(decs), nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
