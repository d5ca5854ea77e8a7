package compute

import (
	"time"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// prSweep is the state of an FS PageRank phase. It lives in the engine,
// and the range workers are methods bound once, because a closure handed
// to parallelRanges escapes: building one per pass would allocate twice
// per iteration.
type prSweep struct {
	// contrib[u] = rank[u]/outdeg(u) as of the current iteration's start.
	contrib values
	base    float64 // (1-d)/|V|
	iter    int
	// contribCuts cuts the contribution pass uniformly (every vertex
	// costs one division); fsEngine.cuts cuts the pull pass.
	contribCuts []int
	// Per worker: adjacency accessor (with its edge count) and the
	// pull pass's summed |rank change|.
	ctx   []recomputeCtx
	delta []float64

	contribFn, pullFn func(w, lo, hi int)
}

// fsPR is GAP's PageRank (pr.cc): per iteration a contribution pass
// contrib[u] = rank[u]/outdeg(u), a barrier, and a pull pass rank[v] =
// base + d·Σ contrib[in(v)], until the summed absolute rank change drops
// below the tolerance (GAP's convergence criterion) or the iteration cap
// is reached. The pull reads only contrib, so ranks are updated in place
// and the sweeps stay Jacobi.
func fsPR(e *fsEngine, g ds.Graph) {
	n := g.NumNodes()
	csr := flatCSROf(g)
	threads := e.opts.threads()
	tol := e.opts.prTolerance()
	maxIters := e.opts.prMaxIters()

	p := &e.pr
	if p.pullFn == nil {
		p.contribFn, p.pullFn = e.prContribRange, e.prPullRange
	}
	if cap(p.contrib) < n {
		p.contrib = make(values, n)
	}
	p.contrib = p.contrib[:n]
	p.base = prBase / float64(n)

	// Each vertex's pull cost is its in-degree, so with a flat mirror the
	// pass is cut by in-degree prefix sum; the interface path keeps
	// uniform ranges rather than add n degree calls per batch. The cuts
	// are topology-dependent only — identical across iterations — so
	// they are computed once.
	if csr != nil {
		e.cuts = balancedCuts(e.cuts, n, threads, func(i int) int64 {
			return int64(csr.InDegree(graph.NodeID(i)))
		})
	} else {
		e.cuts = uniformCuts(e.cuts, n, threads)
	}
	p.contribCuts = uniformCuts(p.contribCuts, n, threads)
	for len(p.ctx) < threads {
		p.ctx = append(p.ctx, recomputeCtx{})
		p.delta = append(p.delta, 0)
	}
	for w := range p.ctx {
		c := &p.ctx[w]
		c.g, c.csr, c.edges = g, csr, 0
	}

	for p.iter = 0; p.iter < maxIters; p.iter++ {
		parallelRanges(p.contribCuts, p.contribFn)
		parallelRanges(e.cuts, p.pullFn)
		e.stats.Iterations++
		sumDelta := 0.0
		for _, d := range p.delta[:len(e.cuts)-1] {
			sumDelta += d
		}
		if sumDelta < tol {
			break
		}
	}
	e.stats.Processed = uint64(e.stats.Iterations) * uint64(n)
	for w := range p.ctx {
		c := &p.ctx[w]
		e.stats.EdgesTraversed += c.edges
		c.g, c.csr = nil, nil // do not pin the graph between batches
	}
}

// prContribRange is one worker's share of a contribution pass. Slot u is
// written by this worker alone and read only after the pass's barrier.
//
// saga:hotpath
func (e *fsEngine) prContribRange(w, lo, hi int) {
	var t0 time.Time
	if e.opts.WorkerTiming {
		t0 = time.Now() // saga:allow determinism -- worker busy-time metric and trace spans only; never feeds values or frontier order.
	}
	p := &e.pr
	sp := e.tr.Worker("fs.pr.contrib", w)
	p.ctx[w].fillContrib(p.contrib, e.vals, lo, hi)
	sp.SetInt("iter", int64(p.iter+1))
	sp.SetInt("vertices", int64(hi-lo))
	sp.End()
	if e.opts.WorkerTiming {
		e.clock.add(w, time.Since(t0)) // saga:allow determinism -- worker busy-time metric only.
	}
}

// prPullRange is one worker's share of a pull pass: a monomorphic loop of
// plain loads and stores. rank[v] is read and written by this worker
// alone; other workers reach ranks only through the contribution pass,
// on the far side of a barrier.
//
// saga:hotpath
func (e *fsEngine) prPullRange(w, lo, hi int) {
	var t0 time.Time
	if e.opts.WorkerTiming {
		t0 = time.Now() // saga:allow determinism -- worker busy-time metric and trace spans only; never feeds values or frontier order.
	}
	p := &e.pr
	sp := e.tr.Worker("fs.pr.iter", w)
	ctx, rank, contrib, base := &p.ctx[w], e.vals, p.contrib, p.base
	edges0 := ctx.edges
	delta := 0.0
	for v := lo; v < hi; v++ {
		newv := prPull(ctx.inRun(graph.NodeID(v)), contrib, base)
		delta += abs(newv - rank.get(v))
		rank.put(v, newv)
	}
	p.delta[w] = delta
	sp.SetInt("iter", int64(p.iter+1))
	sp.SetInt("vertices", int64(hi-lo))
	sp.SetInt("edges", int64(ctx.edges-edges0))
	sp.End()
	if e.opts.WorkerTiming {
		e.clock.add(w, time.Since(t0)) // saga:allow determinism -- worker busy-time metric only.
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
