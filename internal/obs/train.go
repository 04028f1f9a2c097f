package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Stage indices for the per-row kernel timers. They mirror the paper's
// hotspot decomposition: S1 builds the Gram matrix, S2 gathers the
// right-hand side, S3 solves. Fused variants do S1 and S2 in one sweep
// that cannot be split, so it is accounted separately as s1+s2.
const (
	StageS1 = iota
	StageS2
	StageS3
	StageS12
	NumStages
)

// StageNames are the label values used for als_train_stage_seconds_total.
var StageNames = [NumStages]string{"s1", "s2", "s3", "s1+s2"}

// StageDur accumulates per-stage wall time inside one worker.
type StageDur [NumStages]time.Duration

// RunMeta identifies a training run for /runinfo and the event log.
type RunMeta struct {
	Program    string    `json:"program,omitempty"`
	Dataset    string    `json:"dataset,omitempty"`
	Rows       int       `json:"rows,omitempty"`
	Cols       int       `json:"cols,omitempty"`
	NNZ        int       `json:"nnz,omitempty"`
	K          int       `json:"k,omitempty"`
	Lambda     float64   `json:"lambda,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
	Variant    string    `json:"variant,omitempty"`
	Mode       string    `json:"mode,omitempty"` // "explicit" or "implicit"
	Workers    int       `json:"workers,omitempty"`
	StartedAt  time.Time `json:"started_at"`
}

// WorkerHalf is one worker's share of one half iteration.
type WorkerHalf struct {
	Worker int     `json:"worker"`
	BusyMS float64 `json:"busy_ms"`
	Chunks int     `json:"chunks"`
	Rows   int     `json:"rows"`
}

// RunEvent is one entry of the structured run-event log: a completed half
// iteration ("half"), a loss measurement ("loss"), a checkpoint I/O
// ("checkpoint"), or a divergence rollback ("rollback"). TMS is the
// event's start offset since the run began.
type RunEvent struct {
	Event      string             `json:"event"`
	TMS        float64            `json:"t_ms"`
	Iter       int                `json:"iter,omitempty"`
	Half       string             `json:"half,omitempty"`
	DurMS      float64            `json:"dur_ms,omitempty"`
	Rows       int                `json:"rows,omitempty"`
	NNZ        int                `json:"nnz,omitempty"`
	RowsPerSec float64            `json:"rows_per_sec,omitempty"`
	StageMS    map[string]float64 `json:"stage_ms,omitempty"`
	Workers    []WorkerHalf       `json:"workers,omitempty"`
	Loss       *float64           `json:"loss,omitempty"`
	Op         string             `json:"op,omitempty"` // checkpoint: "save" or "load"
	Bytes      int64              `json:"bytes,omitempty"`
	Error      string             `json:"error,omitempty"`
}

// TrainRecorder collects the training-run observability stream: per-half
// spans with worker utilization and stage shares, loss history, and
// checkpoint I/O. It is fed by the host training loop (coarse-grained —
// one call per worker per half rendezvous, never per row), optionally
// mirrors everything into a Registry for live /metrics, and exports the
// run as a Chrome trace-event file or a JSONL event log afterwards.
//
// All methods are nil-safe: a nil *TrainRecorder records nothing, so call
// sites can stay unconditional outside the row-update hot loop.
type TrainRecorder struct {
	mu     sync.Mutex
	start  time.Time
	meta   RunMeta
	events []RunEvent

	iter      int // last completed full iteration
	cur       *RunEvent
	curWall   time.Time
	curStage  StageDur
	lastLoss  *float64
	totStage  [NumStages]float64
	ckpts     int
	halves    int
	maxWorker int

	mIteration, mLoss, mRowsPerSec *Vec
	mHalves, mHalfSeconds, mRows   *Vec
	mStageSeconds                  *Vec
	mWorkerBusy, mWorkerIdle       *Vec
	mWorkerChunks, mWorkerRows     *Vec
	mCkptSeconds, mCkptBytes       *Vec
	mCkptOps                       *Vec
}

// NewTrainRecorder starts an empty recorder; the run clock starts now.
func NewTrainRecorder() *TrainRecorder {
	now := time.Now()
	return &TrainRecorder{start: now, meta: RunMeta{StartedAt: now}}
}

// SetMeta records what the caller knows about the run (the command layer:
// program, dataset name, hyperparameters).
func (r *TrainRecorder) SetMeta(program, dataset string, k int, lambda float64, iterations int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.meta.Program, r.meta.Dataset = program, dataset
	r.meta.K, r.meta.Lambda, r.meta.Iterations = k, lambda, iterations
}

// SetShape records what the solver knows about the run (matrix dimensions,
// resolved worker count, code variant and training mode). Called by
// host.Run, for single-process and distributed runs alike.
func (r *TrainRecorder) SetShape(rows, cols, nnz, workers int, variant, mode string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.meta.Rows, r.meta.Cols, r.meta.NNZ = rows, cols, nnz
	r.meta.Workers, r.meta.Variant, r.meta.Mode = workers, variant, mode
}

// Register mirrors the recorder into reg as live Prometheus metrics.
func (r *TrainRecorder) Register(reg *Registry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mIteration = reg.Gauge("als_train_iteration", "Last completed full ALS iteration.")
	r.mLoss = reg.Gauge("als_train_loss", "Latest regularized training loss (Eq. 2).")
	r.mRowsPerSec = reg.Gauge("als_train_rows_per_second", "Row-update throughput of the most recent half iteration.", "half")
	r.mHalves = reg.Counter("als_train_halves_total", "Completed half iterations.", "half")
	r.mHalfSeconds = reg.Counter("als_train_half_seconds_total", "Wall time spent in half iterations.", "half")
	r.mRows = reg.Counter("als_train_rows_total", "Row updates performed.", "half")
	r.mStageSeconds = reg.Counter("als_train_stage_seconds_total",
		"Kernel wall time by ALS stage and training mode, summed across workers (the paper's S1/S2/S3 hotspot shares; fused variants report the indivisible sweep as s1+s2).", "stage", "mode")
	r.mWorkerBusy = reg.Counter("als_train_worker_busy_seconds_total", "Per-worker time spent executing half-iteration jobs.", "worker")
	r.mWorkerIdle = reg.Counter("als_train_worker_idle_seconds_total", "Per-worker time parked inside a half iteration while others still ran (imbalance).", "worker")
	r.mWorkerChunks = reg.Counter("als_train_worker_chunks_total", "Chunks claimed from the shared cursor per worker.", "worker")
	r.mWorkerRows = reg.Counter("als_train_worker_rows_total", "Row updates performed per worker.", "worker")
	r.mCkptSeconds = reg.Counter("als_checkpoint_io_seconds_total", "Time spent in checkpoint I/O.", "op")
	r.mCkptBytes = reg.Counter("als_checkpoint_io_bytes_total", "Bytes moved by checkpoint I/O.", "op")
	r.mCkptOps = reg.Counter("als_checkpoint_io_total", "Checkpoint operations by outcome.", "op", "result")
	reg.Func("als_train_info", "Training-run identity (value is always 1).", Gauge,
		[]string{"program", "dataset", "variant", "mode", "k", "workers"}, func() []Sample {
			r.mu.Lock()
			m := r.meta
			r.mu.Unlock()
			mode := m.Mode
			if mode == "" {
				mode = "explicit"
			}
			return []Sample{{Labels: []string{m.Program, m.Dataset, m.Variant, mode,
				strconv.Itoa(m.K), strconv.Itoa(m.Workers)}, Value: 1}}
		})
}

// BeginHalf opens the span for one half iteration. The worker slots are
// preallocated so WorkerReport only writes into its own index.
func (r *TrainRecorder) BeginHalf(iter int, half string, rows, nnz, workers int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	slots := make([]WorkerHalf, workers)
	for w := range slots {
		slots[w].Worker = w
	}
	r.cur = &RunEvent{Event: "half", TMS: msSince(r.start, now), Iter: iter, Half: half,
		Rows: rows, NNZ: nnz, Workers: slots}
	r.curWall = now
	r.curStage = StageDur{}
	if workers > r.maxWorker {
		r.maxWorker = workers
	}
}

// WorkerReport records one worker's share of the open half: its busy wall
// time inside the job, chunk claims, rows updated, and per-stage kernel
// time. Reports accumulate — a worker that drains several copies of the
// broadcast job (the pool channel does not guarantee one copy per worker)
// reports once per copy.
func (r *TrainRecorder) WorkerReport(worker int, busy time.Duration, chunks, rows int, stage StageDur) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil || worker < 0 || worker >= len(r.cur.Workers) {
		return
	}
	wh := &r.cur.Workers[worker]
	wh.BusyMS += ms(busy)
	wh.Chunks += chunks
	wh.Rows += rows
	for s := range stage {
		r.curStage[s] += stage[s]
	}
}

// EndHalf closes the open half span, derives throughput and stage shares,
// and publishes the live metrics.
func (r *TrainRecorder) EndHalf() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := r.cur
	if ev == nil {
		return
	}
	r.cur = nil
	dur := time.Since(r.curWall)
	ev.DurMS = ms(dur)
	if secs := dur.Seconds(); secs > 0 {
		ev.RowsPerSec = float64(ev.Rows) / secs
	}
	stageMS := make(map[string]float64)
	for s, d := range r.curStage {
		if d > 0 {
			stageMS[StageNames[s]] = ms(d)
			r.totStage[s] += d.Seconds()
		}
	}
	if len(stageMS) > 0 {
		ev.StageMS = stageMS
	}
	r.events = append(r.events, *ev)
	r.halves++

	if r.mHalves == nil {
		return
	}
	r.mHalves.With(ev.Half).Inc()
	r.mHalfSeconds.With(ev.Half).Add(dur.Seconds())
	r.mRows.With(ev.Half).Add(float64(ev.Rows))
	r.mRowsPerSec.With(ev.Half).Set(ev.RowsPerSec)
	mode := r.meta.Mode
	if mode == "" {
		mode = "explicit"
	}
	for s, d := range r.curStage {
		if d > 0 {
			r.mStageSeconds.With(StageNames[s], mode).Add(d.Seconds())
		}
	}
	for _, wh := range ev.Workers {
		lbl := strconv.Itoa(wh.Worker)
		busy := wh.BusyMS / 1e3
		r.mWorkerBusy.With(lbl).Add(busy)
		if idle := dur.Seconds() - busy; idle > 0 {
			r.mWorkerIdle.With(lbl).Add(idle)
		}
		r.mWorkerChunks.With(lbl).Add(float64(wh.Chunks))
		r.mWorkerRows.With(lbl).Add(float64(wh.Rows))
	}
}

// IterDone marks one full ALS iteration complete.
func (r *TrainRecorder) IterDone(iter int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.iter = iter
	if r.mIteration != nil {
		r.mIteration.Set(float64(iter))
	}
}

// RecordLoss logs one loss measurement.
func (r *TrainRecorder) RecordLoss(iter int, half string, loss float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l := loss
	r.lastLoss = &l
	r.events = append(r.events, RunEvent{Event: "loss", TMS: msSince(r.start, time.Now()),
		Iter: iter, Half: half, Loss: &l})
	if r.mLoss != nil {
		r.mLoss.Set(loss)
	}
}

// RecordRollback logs one divergence rollback: the iteration whose loss
// (or factors) tripped the watchdog and the offending loss value.
func (r *TrainRecorder) RecordRollback(iter int, loss float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l := loss
	r.events = append(r.events, RunEvent{Event: "rollback", TMS: msSince(r.start, time.Now()),
		Iter: iter, Loss: &l})
}

// RecordCheckpoint logs one checkpoint save or load, its duration, the
// encoded byte count, and whether it failed.
func (r *TrainRecorder) RecordCheckpoint(op string, d time.Duration, bytes int64, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := RunEvent{Event: "checkpoint", TMS: msSince(r.start, time.Now().Add(-d)),
		DurMS: ms(d), Op: op, Bytes: bytes}
	if err != nil {
		ev.Error = err.Error()
	}
	r.events = append(r.events, ev)
	r.ckpts++
	if r.mCkptSeconds != nil {
		r.mCkptSeconds.With(op).Add(d.Seconds())
		r.mCkptBytes.With(op).Add(float64(bytes))
		result := "ok"
		if err != nil {
			result = "error"
		}
		r.mCkptOps.With(op, result).Inc()
	}
}

// TrainRunInfo is the /runinfo payload: run identity, progress, cumulative
// stage totals and the tail of the event log.
type TrainRunInfo struct {
	Meta          RunMeta            `json:"meta"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	Iteration     int                `json:"iteration"`
	Halves        int                `json:"halves"`
	Checkpoints   int                `json:"checkpoints"`
	LastLoss      *float64           `json:"last_loss,omitempty"`
	StageSeconds  map[string]float64 `json:"stage_seconds_total,omitempty"`
	RecentEvents  []RunEvent         `json:"recent_events,omitempty"`
}

// runinfoTail bounds the /runinfo payload on long runs.
const runinfoTail = 100

// RunInfo snapshots the run for the /runinfo endpoint.
func (r *TrainRecorder) RunInfo() TrainRunInfo {
	if r == nil {
		return TrainRunInfo{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	info := TrainRunInfo{
		Meta:          r.meta,
		UptimeSeconds: time.Since(r.start).Seconds(),
		Iteration:     r.iter,
		Halves:        r.halves,
		Checkpoints:   r.ckpts,
		LastLoss:      r.lastLoss,
	}
	stage := make(map[string]float64)
	for s, secs := range r.totStage {
		if secs > 0 {
			stage[StageNames[s]] = secs
		}
	}
	if len(stage) > 0 {
		info.StageSeconds = stage
	}
	tail := r.events
	if len(tail) > runinfoTail {
		tail = tail[len(tail)-runinfoTail:]
	}
	info.RecentEvents = append([]RunEvent(nil), tail...)
	return info
}

// WriteJSONL writes the structured run-event log: a meta line followed by
// one JSON object per recorded event, in time order.
func (r *TrainRecorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	meta := r.meta
	events := append([]RunEvent(nil), r.events...)
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Event string  `json:"event"`
		Meta  RunMeta `json:"meta"`
	}{"meta", meta}); err != nil {
		return err
	}
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return nil
}

// traceEvent is one Chrome trace-event (the Trace Event Format's JSON
// object form, loadable in chrome://tracing and Perfetto).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace thread IDs: the training loop, per-worker lanes, checkpoint I/O.
const (
	traceTIDLoop       = 0
	traceTIDCheckpoint = 999
	traceTIDWorkerBase = 1
)

// WriteChromeTrace exports the run as a Chrome trace-event JSON file.
// Half iterations are complete ("X") spans on the train-loop lane with the
// stage shares as args; each worker's busy time is a span on its own lane
// (aggregate per half, anchored at the half's start); loss is a counter
// ("C") track; checkpoint I/O spans ride a dedicated lane.
func (r *TrainRecorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	meta := r.meta
	events := append([]RunEvent(nil), r.events...)
	maxWorker := r.maxWorker
	r.mu.Unlock()

	program := meta.Program
	if program == "" {
		program = "als-train"
	}
	tes := []traceEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": program}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: traceTIDLoop, Args: map[string]any{"name": "train-loop"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: traceTIDCheckpoint, Args: map[string]any{"name": "checkpoint-io"}},
	}
	for wk := 0; wk < maxWorker; wk++ {
		tes = append(tes, traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: traceTIDWorkerBase + wk,
			Args: map[string]any{"name": fmt.Sprintf("worker-%d", wk)}})
	}
	for _, ev := range events {
		ts := ev.TMS * 1e3
		switch ev.Event {
		case "half":
			args := map[string]any{"iter": ev.Iter, "rows": ev.Rows, "nnz": ev.NNZ,
				"rows_per_sec": ev.RowsPerSec}
			for k, v := range ev.StageMS {
				args["stage_ms/"+k] = v
			}
			tes = append(tes, traceEvent{Name: fmt.Sprintf("iter%d/%s", ev.Iter, ev.Half),
				Cat: "half", Ph: "X", TS: ts, Dur: ev.DurMS * 1e3, PID: 1, TID: traceTIDLoop, Args: args})
			for _, wh := range ev.Workers {
				tes = append(tes, traceEvent{Name: "busy", Cat: "worker", Ph: "X", TS: ts,
					Dur: wh.BusyMS * 1e3, PID: 1, TID: traceTIDWorkerBase + wh.Worker,
					Args: map[string]any{"chunks": wh.Chunks, "rows": wh.Rows}})
			}
		case "loss":
			if ev.Loss != nil {
				tes = append(tes, traceEvent{Name: "loss", Ph: "C", TS: ts, PID: 1, TID: traceTIDLoop,
					Args: map[string]any{"loss": *ev.Loss}})
			}
		case "rollback":
			args := map[string]any{"iter": ev.Iter}
			if ev.Loss != nil {
				args["loss"] = *ev.Loss
			}
			tes = append(tes, traceEvent{Name: "rollback", Cat: "guard", Ph: "i", TS: ts,
				PID: 1, TID: traceTIDLoop, Args: args})
		case "checkpoint":
			args := map[string]any{"bytes": ev.Bytes}
			if ev.Error != "" {
				args["error"] = ev.Error
			}
			tes = append(tes, traceEvent{Name: ev.Op, Cat: "checkpoint", Ph: "X", TS: ts,
				Dur: ev.DurMS * 1e3, PID: 1, TID: traceTIDCheckpoint, Args: args})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{tes, "ms"})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msSince(start, t time.Time) float64 { return ms(t.Sub(start)) }
