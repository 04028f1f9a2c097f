// Package host implements the ALS solver as real goroutine-parallel Go for
// the machine the benchmarks run on. It is the wall-clock counterpart to the
// simulated-device kernels in internal/kernels: the same code-variant space
// (flat baseline vs. thread batching; register/local/vector/fused toggles)
// mapped to genuine host mechanisms:
//
//   - flat scheduling  -> one static contiguous block of rows per worker,
//     so skewed rows imbalance the workers (the SAC'15 baseline behaviour);
//   - thread batching  -> dynamic chunked work sharing via an atomic cursor,
//     with rows visited longest-first (LPT) so stragglers surface early;
//   - registers        -> the Fig. 3b k-strip accumulator kernel instead of
//     the k×k scratch;
//   - local memory     -> staging the gathered rows of Y (and the row's
//     ratings) into a dense per-worker buffer before computing, i.e. cache
//     blocking;
//   - vector units     -> 4-way unrolled inner loops;
//   - fused            -> S1 and S2 in one sweep over the gathered rows into
//     a packed upper-triangular Gram, solved by a packed Cholesky.
//
// Workers are spawned once per Pool (one per Train call) and persist across all half
// iterations: each half is a rendezvous on a shared job (an atomic row
// cursor), not a fresh goroutine fan-out, and each worker's scratch lives
// for the whole run so the row-update steady state allocates nothing.
//
// Every variant produces identical factors for identical inputs (the
// package tests assert this), so scheduling and kernel choice change only
// performance — the paper's definition of a code variant.
package host

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// Config controls one ALS training run.
type Config struct {
	K          int     // latent factor dimensionality (default 10)
	Lambda     float32 // regularization coefficient (0 = none; the paper uses 0.1)
	Iterations int     // full ALS iterations (paper uses 5 for timing)
	Workers    int     // goroutines; 0 means GOMAXPROCS
	Seed       int64   // seed for Y's random initial guess

	// Flat selects the SAC'15 baseline scheduling (static contiguous row
	// blocks, scatter kernel) regardless of Variant.
	Flat bool
	// Variant selects the optimization toggles for thread-batched runs.
	Variant variant.Options

	// WeightedLambda enables the ALS-WR convention λ·|Ω_u|·I (Zhou et al.)
	// instead of the paper's plain λI.
	WeightedLambda bool

	// Implicit switches training to implicit-feedback ALS (Hu et al.):
	// ratings become confidences c_ui = 1 + Alpha·r_ui over unit
	// preferences, each half iteration precomputes the shared FᵀF Gram
	// sequentially in float64, and the row kernels apply confidence-weighted
	// rank-1 corrections on top of it. The direct-solver path is
	// bit-identical to the reference solver in internal/solvers (the
	// equivalence suite pins it). Incompatible with WeightedLambda. The
	// Fused and Register variant toggles are no-ops in this mode — the
	// confidence kernels are inherently fused into packed register-strip
	// form; Local staging, Vector unrolling and Flat scheduling still apply.
	Implicit bool
	// Alpha is the implicit-mode confidence scale (default 40).
	Alpha float32
	// Solver selects the per-row S3: direct Cholesky (default), direct
	// LDLᵀ, or matrix-free conjugate gradient (CG never assembles the k×k
	// normal matrix — each iteration applies it as k² + |Ω|·k work, so a
	// few warm-started iterations beat the |Ω|·k² assembly at large k). CG
	// results differ from the direct solve within a small tolerance; on
	// breakdown (degenerate system) the row falls back to the assembled
	// system and the guard recovery ladder.
	Solver Solver
	// CGIters bounds the CG iterations per row solve (default 3, following
	// the rusket exemplar's cg_iters).
	CGIters int
	// BlockSize enables iALS++ (arXiv 2110.14044) block-coordinate
	// subspace updates in implicit mode: each row update performs one
	// Gauss-Seidel sweep over ⌈k/b⌉ coordinate blocks, solving only b×b
	// systems, so per-row cost scales as k² + |Ω|·k·b instead of |Ω|·k².
	// 0 = full direct solve. Requires Implicit and the Cholesky solver.
	BlockSize int

	// TrackLoss records the regularized loss (Eq. 2) after every half-step;
	// costs an extra pass over the ratings, so benchmarks leave it off.
	TrackLoss bool
	// Tolerance enables early stopping (Algorithm 1's "until it reaches the
	// maximum specified cycles or error rate"): training stops once the
	// relative loss improvement of a full iteration falls below Tolerance.
	// Implies loss evaluation each iteration. 0 disables.
	Tolerance float64
	// ChunkSize is the number of rows a batched worker claims at once;
	// 0 means a heuristic from the row count, mean row degree and Workers.
	ChunkSize int

	// StartIteration resumes a checkpointed run: the loop begins at
	// StartIteration+1 (0 = a fresh run). ResumeX/ResumeY must then carry
	// the factors as of that iteration; they are deep-copied, never
	// mutated. Because every iteration is a pure function of the current
	// factors, a resumed run is bit-identical to an uninterrupted one.
	StartIteration int
	ResumeX        *linalg.Dense
	ResumeY        *linalg.Dense

	// OnIteration, when set, runs after every completed full iteration
	// (workers quiescent, factors stable) with the 1-based iteration
	// number, the live factor matrices, and the history so far. An error
	// aborts training — a checkpoint that cannot be written should stop a
	// run that depends on being resumable.
	OnIteration func(it int, x, y *linalg.Dense, history []IterStats) error

	// Guard, when set, arms the numerical-resilience layer: the solver
	// recovery ladder in the row-update kernel (ridge jitter → LDLᵀ → skip
	// instead of aborting the run), the divergence watchdog at the
	// iteration boundary (typed guard.DivergedError the caller can answer
	// with a checkpoint rollback), and any configured chaos injection. Nil
	// — the library default — keeps the pre-guard fail-fast behavior
	// bit-for-bit, as does Guard.Strict apart from typed errors.
	Guard *guard.Guard

	// Obs, when set, receives the training-run observability stream:
	// half-iteration spans, per-worker utilization, per-stage kernel time,
	// and loss points. All recording happens at the half rendezvous (one
	// report per worker per half), except the stage timers which bracket
	// the S1/S2/S3 kernels inside updateRow; with Obs nil the row-update
	// path is untouched and stays allocation-free.
	Obs *obs.TrainRecorder
}

// chunkRowNNZBudget caps a default chunk's work: one claim covers roughly
// this many nonzeros. Without the cap a 64-row chunk is microseconds of work
// on a sparse side but a serial straggler on a dense one.
const chunkRowNNZBudget = 4096

// defaultChunk sizes a batched worker's claim for an m-row side holding nnz
// ratings: small enough that every worker sees several chunks (dynamic
// balancing), and capped by the mean row degree so claim granularity is
// roughly constant in work rather than in rows.
func defaultChunk(m, nnz, workers int) int {
	c := 64
	if v := 1 + m/(workers*8); v < c {
		c = v
	}
	if m > 0 && nnz > 0 {
		meanDeg := (nnz + m - 1) / m
		if byWork := chunkRowNNZBudget / meanDeg; byWork < c {
			c = byWork
		}
	}
	if c < 1 {
		c = 1
	}
	return c
}

func (c *Config) setDefaults(m, nnz int) {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = defaultChunk(m, nnz, c.Workers)
	}
	if c.Alpha <= 0 {
		c.Alpha = 40
	}
	if c.CGIters <= 0 {
		c.CGIters = 3
	}
	if c.BlockSize > c.K {
		c.BlockSize = c.K
	}
}

// validateMode rejects inconsistent training-mode combinations up front,
// before any workers spawn.
func (c *Config) validateMode() error {
	if c.Solver > SolverCG {
		return fmt.Errorf("host: unknown solver %d", c.Solver)
	}
	if c.Implicit && c.WeightedLambda {
		return fmt.Errorf("host: WeightedLambda applies to explicit ALS-WR only, not implicit mode")
	}
	if c.BlockSize < 0 {
		return fmt.Errorf("host: negative block size %d", c.BlockSize)
	}
	if c.BlockSize > 0 && !c.Implicit {
		return fmt.Errorf("host: block-coordinate updates (iALS++) require implicit mode")
	}
	if c.BlockSize > 0 && c.Solver != SolverCholesky {
		return fmt.Errorf("host: block-coordinate updates solve each b×b subsystem directly; -solver %s cannot be combined with a block size", c.Solver)
	}
	return nil
}

// IterStats records per-half-iteration progress when TrackLoss is on.
type IterStats struct {
	Iteration int     // 1-based full iteration
	Half      string  // "X" or "Y"
	Loss      float64 // regularized loss, Eq. 2
	Elapsed   time.Duration
}

// Result is a trained factorization.
type Result struct {
	X, Y    *linalg.Dense // user (m×k) and item (n×k) factors
	History []IterStats
	Elapsed time.Duration
	// Converged is the iteration early stopping fired at (0 when Tolerance
	// was unset; Iterations when the loop ran to completion).
	Converged int
}

// Predict returns the estimated rating r̂_ui = x_u·y_i.
func (r *Result) Predict(u, i int) float64 {
	return linalg.Dot(r.X.Row(u), r.Y.Row(i))
}

// RMSE evaluates the model on a rating matrix.
func (r *Result) RMSE(on *sparse.CSR) float64 { return metrics.RMSE(on, r.X, r.Y) }

// Train runs ALS (Algorithm 1): X and Y are updated alternately, each side
// solved exactly row-by-row via Cholesky, for Config.Iterations rounds.
func Train(mx *sparse.Matrix, cfg Config) (*Result, error) { return Run(mx, cfg, nil) }

// Executor runs the row solves of whole half-iterations for Run:
// Half(it, true) updates every row of X against Y, Half(it, false) every
// row of Y against X, in the factor matrices the executor was built over.
// Row updates are pure functions of the fixed side, so every executor
// yields bit-identical factors. Pool is the in-process implementation; the
// distributed trainer's supervised worker cohort is the other.
type Executor interface {
	Half(it int, xHalf bool) error
	// Workers is how many workers report each half into Config.Obs (0 for
	// an executor whose workers cannot).
	Workers() int
	Close()
}

// NewExecutor builds the executor for one Run over the run's factor
// matrices; cfg is the run's configuration with defaults applied.
type NewExecutor func(cfg Config, x, y *linalg.Dense) (Executor, error)

// Run is Train with the half-iterations delegated to the executor newExec
// builds; nil runs them on an in-process Pool. Run owns everything between
// the halves: resume factors, loss tracking, the divergence watchdog, the
// OnIteration hook, early stopping and the observability stream.
func Run(mx *sparse.Matrix, cfg Config, newExec NewExecutor) (*Result, error) {
	m, n := mx.Rows(), mx.Cols()
	if newExec == nil {
		// The pool derives each side's chunk size from ChunkSize as
		// configured, before setDefaults fills it in for the X side.
		asGiven := cfg
		newExec = func(_ Config, x, y *linalg.Dense) (Executor, error) {
			return NewPool(mx, asGiven, x, y, nil), nil
		}
	}
	cfg.setDefaults(m, mx.NNZ())
	if mx.NNZ() == 0 {
		return nil, fmt.Errorf("host: empty rating matrix")
	}
	if err := cfg.validateMode(); err != nil {
		return nil, err
	}
	if cfg.StartIteration < 0 {
		return nil, fmt.Errorf("host: negative start iteration %d", cfg.StartIteration)
	}
	if (cfg.ResumeX == nil) != (cfg.ResumeY == nil) {
		return nil, fmt.Errorf("host: only one of ResumeX/ResumeY set")
	}
	if cfg.StartIteration > 0 && cfg.ResumeX == nil {
		return nil, fmt.Errorf("host: StartIteration %d without resume factors", cfg.StartIteration)
	}
	x := linalg.NewDense(m, cfg.K)
	y := InitialY(n, cfg.K, cfg.Seed)
	if cfg.ResumeX != nil {
		if cfg.ResumeX.Rows != m || cfg.ResumeX.Cols != cfg.K ||
			cfg.ResumeY.Rows != n || cfg.ResumeY.Cols != cfg.K {
			return nil, fmt.Errorf("host: resume factors (%dx%d,%dx%d) do not match run (%dx%d,%dx%d)",
				cfg.ResumeX.Rows, cfg.ResumeX.Cols, cfg.ResumeY.Rows, cfg.ResumeY.Cols,
				m, cfg.K, n, cfg.K)
		}
		x = cfg.ResumeX.Clone()
		y = cfg.ResumeY.Clone()
	}

	exec, err := newExec(cfg, x, y)
	if err != nil {
		return nil, err
	}
	defer exec.Close()

	cfg.Obs.SetShape(m, n, mx.NNZ(), exec.Workers(), cfg.VariantName(), modeLabel(cfg))
	if cfg.Guard != nil {
		cfg.Guard.SetVariant(cfg.VariantName())
		// The watchdog's loss floor scales with the objective's natural
		// magnitude: Σr² for the explicit squared error, Σc·p² = nnz + αΣr
		// for the implicit confidence-weighted one.
		var sq float64
		if cfg.Implicit {
			for _, v := range mx.R.Val {
				sq += 1 + float64(cfg.Alpha)*float64(v)
			}
		} else {
			for _, v := range mx.R.Val {
				sq += float64(v) * float64(v)
			}
		}
		cfg.Guard.SetLossScale(sq)
	}
	halves := [2]struct {
		xHalf bool
		name  string
		rows  int
	}{{true, "X", m}, {false, "Y", n}}
	res := &Result{X: x, Y: y}
	start := time.Now()
	prevLoss := math.Inf(1)
	for it := cfg.StartIteration + 1; it <= cfg.Iterations; it++ {
		for _, h := range halves {
			cfg.Obs.BeginHalf(it, h.name, h.rows, mx.NNZ(), exec.Workers())
			err := exec.Half(it, h.xHalf)
			cfg.Obs.EndHalf()
			if err != nil {
				annotateRowError(err, it)
				return nil, fmt.Errorf("host: iteration %d update %s: %w", it, h.name, err)
			}
			if cfg.TrackLoss {
				loss := cfg.loss(mx, x, y)
				res.History = append(res.History, IterStats{
					Iteration: it, Half: h.name, Loss: loss, Elapsed: time.Since(start),
				})
				cfg.Obs.RecordLoss(it, h.name, loss)
			}
		}
		// Divergence watchdog: with the workers parked the factors are
		// stable, so this is the safe point to vet them — and it runs
		// before OnIteration so diverged factors are never checkpointed.
		// A chaos blow-up lands here too (after the half losses were
		// recorded, mimicking corruption that strikes between iterations),
		// in which case the vetted loss must be recomputed from the
		// corrupted factors rather than reused.
		if g := cfg.Guard; g != nil {
			blew := g.Chaos.BlowUp(it)
			if blew {
				g.Chaos.CorruptFactors(x.Data)
			}
			var loss float64
			if cfg.TrackLoss && !blew {
				loss = res.History[len(res.History)-1].Loss
			} else {
				loss = cfg.loss(mx, x, y)
			}
			if err := g.CheckIteration(it, x.Data, y.Data, loss); err != nil {
				return nil, fmt.Errorf("host: iteration %d: %w", it, err)
			}
		}
		// Workers are parked between halves, so the factors are stable here.
		if cfg.OnIteration != nil {
			if err := cfg.OnIteration(it, x, y, res.History); err != nil {
				return nil, fmt.Errorf("host: iteration %d hook: %w", it, err)
			}
		}
		cfg.Obs.IterDone(it)
		if cfg.Tolerance > 0 {
			var loss float64
			if cfg.TrackLoss {
				loss = res.History[len(res.History)-1].Loss
			} else {
				loss = cfg.loss(mx, x, y)
				cfg.Obs.RecordLoss(it, "Y", loss)
			}
			res.Converged = it
			if prevLoss-loss < cfg.Tolerance*prevLoss {
				break
			}
			prevLoss = loss
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// annotateRowError fills the iteration into a guard.RowError bubbling out
// of the worker pool — the workers know the row but not the iteration.
func annotateRowError(err error, it int) {
	var re *guard.RowError
	if errors.As(err, &re) && re.Iteration == 0 {
		re.Iteration = it
	}
}

// VariantName names the run's code variant the way checkpoints and
// observability output record it.
func (c Config) VariantName() string {
	if c.Flat {
		return "flat baseline"
	}
	return c.Variant.String()
}

// modeLabel names the training mode for observability output.
func modeLabel(cfg Config) string {
	if cfg.Implicit {
		return "implicit"
	}
	return "explicit"
}

// loss evaluates the objective the configured mode minimizes: the paper's
// Eq. 2 for explicit runs, the Hu et al. confidence-weighted objective for
// implicit ones. The watchdog, early stopping and TrackLoss all read this,
// so divergence detection stays meaningful across modes.
func (c Config) loss(mx *sparse.Matrix, x, y *linalg.Dense) float64 {
	if c.Implicit {
		return metrics.ImplicitLoss(mx.R, x, y, float64(c.Alpha), float64(c.Lambda))
	}
	return metrics.RegularizedLoss(mx.R, x, y, float64(c.Lambda), c.WeightedLambda)
}

// InitialY fills Y with the paper's "small random numbers" initial guess.
// Exported so the simulated-device kernels start from the identical Y and
// the variant-equivalence tests can compare factors across substrates.
func InitialY(n, k int, seed int64) *linalg.Dense {
	rng := rand.New(rand.NewSource(seed))
	y := linalg.NewDense(n, k)
	for i := range y.Data {
		y.Data[i] = rng.Float32() * 0.1
	}
	return y
}

// lptOrder returns the rows of r sorted by descending nonzero count, ties
// broken by ascending row index (a counting sort, so building it is O(m)).
// Visiting rows longest-first approximates LPT scheduling: the expensive
// rows are claimed while every worker is still busy, instead of surfacing
// at the tail where they serialize the half iteration.
func lptOrder(r *sparse.CSR) []int32 {
	m := r.NumRows
	maxDeg := 0
	for u := 0; u < m; u++ {
		if d := r.RowNNZ(u); d > maxDeg {
			maxDeg = d
		}
	}
	start := make([]int, maxDeg+1)
	for u := 0; u < m; u++ {
		start[r.RowNNZ(u)]++
	}
	pos := 0
	for d := maxDeg; d >= 0; d-- {
		n := start[d]
		start[d] = pos
		pos += n
	}
	order := make([]int32, m)
	for u := 0; u < m; u++ {
		d := r.RowNNZ(u)
		order[start[d]] = int32(u)
		start[d]++
	}
	return order
}

// halfJob is one half iteration handed to every worker: the side's CSR, the
// factor pair, the visit order, and a shared atomic cursor the workers claim
// chunks from. A job completes when all workers return from it.
type halfJob struct {
	r          *sparse.CSR
	fixed, out *linalg.Dense
	order      []int32 // LPT permutation; nil = natural order
	chunk      int
	iter       int                // 1-based full iteration (guard/chaos addressing)
	xHalf      bool               // true for the X half, false for the Y half
	gram       *linalg.SharedGram // implicit mode's FᵀF precompute; nil otherwise
	cursor     atomic.Int64
	err        atomic.Value
	wg         sync.WaitGroup
}

// workerPool owns Config.Workers goroutines for the lifetime of one Train
// call. Each worker keeps its scratch (Gram matrix, staging buffers) across
// every half iteration, so steady-state row updates allocate nothing; a half
// iteration costs two channel sends per worker instead of a goroutine spawn.
type workerPool struct {
	cfg     Config
	workers int
	jobs    chan *halfJob
	wg      sync.WaitGroup
}

func newWorkerPool(cfg Config) *workerPool {
	p := &workerPool{cfg: cfg, workers: cfg.Workers, jobs: make(chan *halfJob, cfg.Workers)}
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go p.run(w)
	}
	return p
}

func (p *workerPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// runHalf broadcasts one job to every worker and waits for the rendezvous.
func (p *workerPool) runHalf(r *sparse.CSR, fixed, out *linalg.Dense, order []int32, chunk, iter int, xHalf bool, gram *linalg.SharedGram) error {
	job := &halfJob{r: r, fixed: fixed, out: out, order: order, chunk: chunk, iter: iter, xHalf: xHalf, gram: gram}
	job.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		p.jobs <- job
	}
	job.wg.Wait()
	if err, _ := job.err.Load().(error); err != nil {
		return err
	}
	return nil
}

func (p *workerPool) run(id int) {
	defer p.wg.Done()
	ws := newWorkerState(p.cfg.K)
	ws.timed = p.cfg.Obs != nil
	for job := range p.jobs {
		if ws.timed {
			t0 := time.Now()
			chunks, rows := p.work(job, ws)
			p.cfg.Obs.WorkerReport(id, time.Since(t0), chunks, rows, ws.stage)
			ws.stage = obs.StageDur{}
		} else {
			p.work(job, ws)
		}
		job.wg.Done()
	}
}

// work drains one half-iteration job, returning how many chunks this worker
// claimed and how many rows it updated (both zero-cost to count; only read
// when observability is on).
func (p *workerPool) work(job *halfJob, ws *workerState) (chunks, rows int) {
	m := job.r.NumRows
	if p.cfg.Flat {
		// Static contiguous blocks [b·m/W, (b+1)·m/W), claimed by index from
		// the shared cursor. Claiming (rather than keying blocks off the
		// worker id) keeps the work idempotent across however the broadcast
		// job copies land on workers: the channel does not guarantee one copy
		// per worker, and a block tied to a starved worker's id would be
		// silently skipped.
		for job.err.Load() == nil {
			blk := int(job.cursor.Add(1)) - 1
			if blk >= p.workers {
				return
			}
			lo := blk * m / p.workers
			hi := (blk + 1) * m / p.workers
			chunks++
			for u := lo; u < hi; u++ {
				// Re-check the shared error inside the block too: a flat
				// block is m/W rows, and finishing it after another worker
				// poisoned the half is wasted (and, under guard, soon
				// rolled-back) work.
				if job.err.Load() != nil {
					return
				}
				if err := updateRow(job.r, job.fixed, job.out, u, job.iter, job.xHalf, p.cfg, ws, job.gram); err != nil {
					job.err.CompareAndSwap(nil, err)
					return
				}
				rows++
			}
		}
		return
	}
	for job.err.Load() == nil {
		base := int(job.cursor.Add(int64(job.chunk))) - job.chunk
		if base >= m {
			return
		}
		end := base + job.chunk
		if end > m {
			end = m
		}
		chunks++
		for i := base; i < end; i++ {
			// Bail mid-chunk once any worker has failed the half — the
			// cursor check above only runs between claims.
			if job.err.Load() != nil {
				return
			}
			u := i
			if job.order != nil {
				u = int(job.order[i])
			}
			if err := updateRow(job.r, job.fixed, job.out, u, job.iter, job.xHalf, p.cfg, ws, job.gram); err != nil {
				job.err.CompareAndSwap(nil, err)
				return
			}
			rows++
		}
	}
	return
}

// workerState is the per-goroutine scratch: the k×k normal matrix (and its
// packed twin for fused variants), the k-vector right-hand side, solver
// scratch, and the staging buffers the "local memory" variant copies
// gathered data into. It lives as long as its worker, so a warmed state
// makes updateRow allocation-free.
type workerState struct {
	smat      *linalg.Dense
	svec      []float32
	gsum      []float32 // GramScatter's private accumulator
	pmat      []float32 // packed upper-triangular Gram (fused variants)
	ldl       []float64 // LDL fallback scratch
	stageY    []float32 // staged rows of the fixed factor, omega×k
	stageVals []float32
	stageCols []int32

	// Implicit-mode and CG scratch: the confidence-scaled row buffer (4k
	// for the unrolled kernel's four strips), the CG residual/direction/
	// matvec vectors and separate right-hand side, and the iALS++ block
	// system (blkMat is a reusable header over blk — never reallocated, so
	// block solves stay allocation-free).
	cf     []float32
	rhs    []float32
	cgR    []float32
	cgP    []float32
	cgAp   []float32
	blk    []float32
	blkMat linalg.Dense
	delta  []float32
	dots   []float32 // per-nonzero f_z·x dot products, grown per row

	// timed brackets the S1/S2/S3 kernels in updateRow with wall-clock
	// probes, accumulated into stage; set only when Config.Obs is non-nil,
	// so the default path carries a single predictable branch per stage.
	timed bool
	stage obs.StageDur
}

func newWorkerState(k int) *workerState {
	return &workerState{
		smat:  linalg.NewDense(k, k),
		svec:  make([]float32, k),
		gsum:  make([]float32, k*k),
		pmat:  make([]float32, linalg.PackedLen(k)),
		ldl:   make([]float64, k),
		cf:    make([]float32, 4*k),
		rhs:   make([]float32, k),
		cgR:   make([]float32, k),
		cgP:   make([]float32, k),
		cgAp:  make([]float32, k),
		blk:   make([]float32, k*k),
		delta: make([]float32, k),
	}
}

func (ws *workerState) ensureStage(omega, k int) {
	if cap(ws.stageY) < omega*k {
		ws.stageY = make([]float32, omega*k)
	}
	ws.stageY = ws.stageY[:omega*k]
	if cap(ws.stageVals) < omega {
		ws.stageVals = make([]float32, omega)
		ws.stageCols = make([]int32, omega)
	}
	ws.stageVals = ws.stageVals[:omega]
	ws.stageCols = ws.stageCols[:omega]
}

func (ws *workerState) ensureDots(omega int) {
	if cap(ws.dots) < omega {
		ws.dots = make([]float32, omega)
	}
	ws.dots = ws.dots[:omega]
}

// updateRow solves one row's normal equations (Algorithm 2 body). With a
// warmed workerState it performs no allocations (the package tests assert
// zero allocs per row for every variant).
//
// Solver failures (ErrNotSPD, or a chaos-forced failure) take one of two
// paths. Without a Guard, or in strict mode, the pre-guard behavior holds:
// one LDLᵀ retry for borderline systems, then a hard error — typed as
// guard.RowError when a Guard is armed so strict runs name the failing
// row. With a non-strict Guard the row climbs the recovery ladder instead:
// re-solve with 2× then 10× ridge jitter added to the diagonal, fall back
// to LDLᵀ, and finally skip the row keeping its last-good factors; every
// rescue is counted on its rung. Each rung re-assembles the full system
// (Gram and right-hand side) because a rejected-but-completed solve has
// already overwritten the RHS with garbage.
func updateRow(r *sparse.CSR, fixed, out *linalg.Dense, u, iter int, xHalf bool, cfg Config, ws *workerState, ig *linalg.SharedGram) error {
	k := cfg.K
	cols, vals := r.Row(u)
	omega := len(cols)
	xu := out.Row(u)
	if omega == 0 {
		for i := range xu {
			xu[i] = 0
		}
		return nil
	}

	g := cfg.Guard
	var chaosGram, forced bool
	if g != nil && g.Chaos != nil {
		chaosGram = g.Chaos.CorruptGram(iter, u, xHalf)
		forced = g.Chaos.FailSolve(iter, u, xHalf)
	}

	src := fixed.Data
	gcols, gvals := cols, vals
	if !cfg.Flat && cfg.Variant.Local {
		// Stage the needed columns of the fixed factor contiguously (Fig. 5):
		// on the host this is cache blocking — one pass of gathered copies,
		// then dense sequential access in S1 and S2.
		ws.ensureStage(omega, k)
		for z, c := range cols {
			copy(ws.stageY[z*k:(z+1)*k], fixed.Row(int(c)))
			ws.stageCols[z] = int32(z)
		}
		copy(ws.stageVals, vals)
		src = ws.stageY
		gcols, gvals = ws.stageCols, ws.stageVals
	}

	// Regularize: λI (paper) or λ|Ω_u|I (ALS-WR).
	lam := cfg.Lambda
	if cfg.WeightedLambda {
		lam *= float32(omega)
	}

	// Implicit mode and the explicit CG solver branch to their own row
	// kernels; the rest of this function is the explicit direct path.
	if cfg.Implicit {
		return updateRowImplicit(cfg, ws, g, chaosGram, forced, src, k, gcols, gvals, lam, xu, u, omega, ig)
	}
	if cfg.Solver == SolverCG {
		return cgRow(cfg, ws, g, chaosGram, forced, src, k, gcols, gvals, lam, xu, u, omega, nil)
	}

	var t0 time.Time
	if ws.timed {
		t0 = time.Now()
	}

	if !cfg.Flat && cfg.Variant.Fused {
		// Fused S1+S2: one sweep over the gathered rows accumulates the
		// packed upper-triangular Gram and the right-hand side together,
		// then a packed Cholesky solves in place. The chaos diagonal
		// zeroing lands after λ (making the system exactly singular) but
		// before any recovery jitter, so the jitter rungs genuinely repair
		// it rather than re-assembling a healthy matrix.
		fused := linalg.GramRHSFused
		if cfg.Variant.Vector {
			fused = linalg.GramRHSFusedUnrolled
		}
		fused(src, k, gcols, gvals, ws.pmat, ws.svec)
		linalg.AddDiagPacked(ws.pmat, k, lam)
		if chaosGram {
			linalg.ZeroDiagPacked(ws.pmat, k)
		}
		if ws.timed {
			now := time.Now()
			ws.stage[obs.StageS12] += now.Sub(t0)
			t0 = now
		}
		var err error
		switch {
		case forced:
			err = guard.ErrForcedFailure
		case cfg.Solver == SolverLDL:
			err = linalg.LDLSolvePacked(ws.pmat, k, ws.svec, ws.ldl)
		default:
			err = linalg.CholeskySolvePacked(ws.pmat, k, ws.svec)
		}
		if err != nil {
			// Recovery is cold by construction, so the closures (and their
			// heap allocation) exist only on this branch: the happy path
			// stays allocation-free.
			assemble := func(extra float32) {
				fused(src, k, gcols, gvals, ws.pmat, ws.svec)
				linalg.AddDiagPacked(ws.pmat, k, lam)
				if chaosGram {
					linalg.ZeroDiagPacked(ws.pmat, k)
				}
				if extra != 0 {
					linalg.AddDiagPacked(ws.pmat, k, extra)
				}
			}
			skip, rerr := recoverRow(g, forced, lam, assemble,
				func() error { return linalg.CholeskySolvePacked(ws.pmat, k, ws.svec) },
				func() error { return linalg.LDLSolvePacked(ws.pmat, k, ws.svec, ws.ldl) },
				ws.svec, u, omega, err)
			if rerr != nil || skip {
				if ws.timed {
					ws.stage[obs.StageS3] += time.Since(t0)
				}
				return rerr
			}
		}
		if ws.timed {
			ws.stage[obs.StageS3] += time.Since(t0)
		}
		copy(xu, ws.svec)
		return nil
	}

	// S1: smat = FᵀF|Ω.
	gramKernel(cfg, src, k, gcols, ws)
	ws.smat.AddDiag(lam)
	if chaosGram {
		zeroDiagDense(ws.smat, k)
	}
	if ws.timed {
		now := time.Now()
		ws.stage[obs.StageS1] += now.Sub(t0)
		t0 = now
	}

	// S2: svec = Fᵀ r_u.
	rhsKernel(cfg, src, k, gcols, gvals, ws.svec)
	if ws.timed {
		now := time.Now()
		ws.stage[obs.StageS2] += now.Sub(t0)
		t0 = now
	}

	// S3: Cholesky solve; failures go through recoverRow (pre-guard LDLᵀ
	// fallback for borderline λ = 0 systems, or the guard's ladder).
	var err error
	switch {
	case forced:
		err = guard.ErrForcedFailure
	case cfg.Solver == SolverLDL:
		err = linalg.LDLSolve(ws.smat, ws.svec)
	default:
		err = linalg.CholeskySolve(ws.smat, ws.svec)
	}
	if err != nil {
		assemble := func(extra float32) {
			gramKernel(cfg, src, k, gcols, ws)
			ws.smat.AddDiag(lam)
			if chaosGram {
				zeroDiagDense(ws.smat, k)
			}
			if extra != 0 {
				ws.smat.AddDiag(extra)
			}
			// The S2 kernels zero svec before accumulating, so this fully
			// restores a right-hand side clobbered by a rejected solve.
			rhsKernel(cfg, src, k, gcols, gvals, ws.svec)
		}
		skip, rerr := recoverRow(g, forced, lam, assemble,
			func() error { return linalg.CholeskySolve(ws.smat, ws.svec) },
			func() error { return linalg.LDLSolve(ws.smat, ws.svec) },
			ws.svec, u, omega, err)
		if rerr != nil || skip {
			if ws.timed {
				ws.stage[obs.StageS3] += time.Since(t0)
			}
			return rerr
		}
	}
	if ws.timed {
		ws.stage[obs.StageS3] += time.Since(t0)
	}
	copy(xu, ws.svec)
	return nil
}

// gramKernel runs the variant's S1 kernel into ws.smat.
func gramKernel(cfg Config, src []float32, k int, gcols []int32, ws *workerState) {
	switch {
	case cfg.Flat || (!cfg.Variant.Register && !cfg.Variant.Vector):
		linalg.GramScatter(src, k, gcols, ws.smat.Data, ws.gsum)
	case cfg.Variant.Vector:
		linalg.GramUnrolled(src, k, gcols, ws.smat.Data)
	default:
		linalg.GramRegister(src, k, gcols, ws.smat.Data)
	}
}

// rhsKernel runs the variant's S2 kernel into svec.
func rhsKernel(cfg Config, src []float32, k int, gcols []int32, gvals, svec []float32) {
	if !cfg.Flat && cfg.Variant.Vector {
		linalg.GatherGaxpyUnrolled(src, k, gcols, gvals, svec)
	} else {
		linalg.GatherGaxpy(src, k, gcols, gvals, svec)
	}
}

// recoverRow handles a failed row solve. Without a guard, or in strict
// mode, it preserves the pre-guard behavior: one LDLᵀ retry on the
// re-assembled system (skipped for chaos-forced failures), then a hard
// error — typed via rowFailure. With a non-strict guard it climbs the
// recovery ladder; if every rung fails it reports skip=true and the caller
// keeps the row's last-good factors. On (false, nil) the scratch RHS holds
// a usable solution.
func recoverRow(g *guard.Guard, forced bool, lam float32, assemble func(extra float32), solve, ldl func() error, svec []float32, u, omega int, firstErr error) (skip bool, err error) {
	if g == nil || g.Strict {
		if !forced {
			assemble(0)
			if lerr := ldl(); lerr == nil {
				return false, nil
			} else {
				firstErr = lerr
			}
		}
		return false, rowFailure(g, u, omega, firstErr)
	}
	if climbLadder(g, forced, lam, assemble, solve, ldl, svec) {
		return false, nil
	}
	g.Recovered(guard.RungSkip)
	return true, nil
}

// climbLadder walks the guard's recovery rungs for one failed row solve:
// ridge jitter at 2× then 10× the effective λ (floored for λ = 0 runs,
// where a multiple of zero would jitter nothing), then LDLᵀ on the
// unjittered system. Each rung re-assembles the system via assemble and
// accepts only a finite solution — LDLᵀ on an indefinite matrix can
// "succeed" with garbage. Chaos-forced failures fail every rung, driving
// the row to the skip rung (handled by the caller when this returns
// false). YᵀY is PSD, so YᵀY + λI + εI is SPD for any ε > 0: the jitter
// rungs genuinely rescue rank-deficient rows rather than papering over a
// logic bug.
func climbLadder(g *guard.Guard, forced bool, lam float32, assemble func(extra float32), solve, ldl func() error, svec []float32) bool {
	if forced {
		return false
	}
	base := lam
	if base <= 0 {
		base = guard.MinJitterBase
	}
	for rung, mult := range guard.JitterMultipliers {
		assemble(base * mult)
		if solve() == nil && guard.FiniteVec(svec) {
			g.Recovered(guard.RungJitter2 + rung)
			return true
		}
	}
	assemble(0)
	if ldl() == nil && guard.FiniteVec(svec) {
		g.Recovered(guard.RungLDL)
		return true
	}
	return false
}

// rowFailure wraps a fatal row-solve error: typed guard.RowError when a
// guard is armed (strict mode), the pre-guard plain error otherwise.
func rowFailure(g *guard.Guard, u, omega int, err error) error {
	if g != nil {
		return &guard.RowError{Row: u, Omega: omega, Err: err}
	}
	return fmt.Errorf("row %d (omega=%d): %w", u, omega, err)
}

// zeroDiagDense zeroes the diagonal of the k×k scratch Gram — the dense
// twin of linalg.ZeroDiagPacked for the chaos harness.
func zeroDiagDense(a *linalg.Dense, k int) {
	for i := 0; i < k; i++ {
		a.Data[i*k+i] = 0
	}
}
