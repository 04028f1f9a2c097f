package host

import (
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// Pool is the in-process Executor: Config.Workers goroutines that persist
// across every half (see workerPool), each side's longest-row-first visit
// order and chunk size built once, and implicit mode's shared FᵀF Gram
// recomputed from the fixed side at the start of each half. The visit
// order changes only load balance, never results.
//
// With a span, a Pool solves only the rows span assigns each side — a
// distributed worker's static partition — and leaves the rest of the
// factor matrices to the exchange. Rows never read each other's output, so
// a partitioned half is bit-identical to the same rows of a full one given
// identical fixed factors: the property the distributed trainer's
// bit-identity guarantee rests on.
type Pool struct {
	pool  *workerPool
	sides [2]poolSide // the X half, then the Y half
	gram  *linalg.SharedGram
}

// poolSide is one half's fixed schedule: the side's rows in the span (R for
// the X half, Rᵀ for the Y half), the factor pair, visit order and chunk.
type poolSide struct {
	r          *sparse.CSR
	fixed, out *linalg.Dense
	order      []int32 // nil = natural order
	chunk      int
}

// NewPool starts cfg.Workers goroutines solving over x and y. span maps a
// side's row count to the row range [lo, hi) this pool owns; nil owns every
// row. Iteration control, loss tracking and hooks in cfg are ignored.
func NewPool(mx *sparse.Matrix, cfg Config, x, y *linalg.Dense, span func(rows int) (lo, hi int)) *Pool {
	userChunk := cfg.ChunkSize
	cfg.setDefaults(mx.Rows(), mx.NNZ())
	p := &Pool{pool: newWorkerPool(cfg)}
	// The Y half runs the same row updates on Rᵀ: a CSR view of the
	// transpose reinterpreting the CSC arrays (no copy).
	rt := &sparse.CSR{NumRows: mx.Cols(), NumCols: mx.Rows(), RowPtr: mx.C.ColPtr, ColIdx: mx.C.RowIdx, Val: mx.C.Val}
	for i, s := range [2]poolSide{{r: mx.R, fixed: y, out: x}, {r: rt, fixed: x, out: y}} {
		if span != nil {
			lo, hi := span(s.r.NumRows)
			s.r = s.r.RowRange(lo, hi)
			s.out = linalg.NewDenseFrom(hi-lo, cfg.K, s.out.Data[lo*cfg.K:hi*cfg.K])
		}
		// With a single worker there is no imbalance to fix and the natural
		// order has better locality, so LPT is skipped.
		if !cfg.Flat && p.pool.workers > 1 {
			s.order = lptOrder(s.r)
		}
		s.chunk = userChunk
		if s.chunk <= 0 {
			s.chunk = defaultChunk(s.r.NumRows, s.r.NNZ(), cfg.Workers)
		}
		p.sides[i] = s
	}
	if cfg.Implicit {
		p.gram = linalg.NewSharedGram(cfg.K)
	}
	return p
}

// Half solves the pool's rows of one side against the other.
func (p *Pool) Half(it int, xHalf bool) error {
	s := &p.sides[1]
	if xHalf {
		s = &p.sides[0]
	}
	if p.gram != nil {
		// Implicit mode shares one FᵀF precompute across every row of the
		// half; it depends only on the fixed side, which every partition
		// sees identically.
		p.gram.Compute(s.fixed)
	}
	return p.pool.runHalf(s.r, s.fixed, s.out, s.order, s.chunk, it, xHalf, p.gram)
}

// Workers reports the pool's goroutine count.
func (p *Pool) Workers() int { return p.pool.workers }

// Close stops the workers; Half must not be called after it.
func (p *Pool) Close() { p.pool.close() }
