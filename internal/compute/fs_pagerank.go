package compute

import "sagabench/internal/graph"

// prSweep is the state of an FS PageRank phase beyond what rounds holds.
type prSweep struct {
	// contrib[u] = rank[u]/outdeg(u) as of the current iteration's start.
	contrib values
	base    float64 // (1-d)/|V|
	// contribCuts cuts the contribution pass uniformly (every vertex
	// costs one division); rounds.cuts cuts the pull pass.
	contribCuts []int

	contribPass, pullPass pass
}

// fsPR is GAP's PageRank (pr.cc): per iteration a contribution pass
// contrib[u] = rank[u]/outdeg(u), a barrier, and a pull pass rank[v] =
// base + d·Σ contrib[in(v)], until the summed absolute rank change drops
// below the tolerance (GAP's convergence criterion) or the iteration cap
// is reached. The pull reads only contrib, so ranks are updated in place
// and the sweeps stay Jacobi.
func fsPR(e *fsEngine) {
	n, threads := e.n, e.opts.threads()
	tol := e.opts.prTolerance()
	maxIters := e.opts.prMaxIters()

	p := &e.pr
	if cap(p.contrib) < n {
		p.contrib = make(values, n)
	}
	p.contrib = p.contrib[:n]
	p.base = prBase / float64(n)

	// The pull cuts are topology-dependent only — identical across
	// iterations — so they are computed once.
	e.pullCuts()
	p.contribCuts = graph.UniformCuts(p.contribCuts, n, threads)

	for e.stats.Iterations < maxIters {
		e.run(&p.contribPass, p.contribCuts)
		e.run(&p.pullPass, e.cuts)
		e.stats.Iterations++
		sumDelta := 0.0
		for w := range e.workers[:len(e.cuts)-1] {
			sumDelta += e.workers[w].delta
		}
		if sumDelta < tol {
			break
		}
	}
}

// prContribRange is one worker's share of a contribution pass. Slot u is
// written by this worker alone and read only after the pass's barrier.
//
// saga:hotpath
func (e *fsEngine) prContribRange(wk *worker, lo, hi int) {
	wk.ctx.fillContrib(e.pr.contrib, e.vals, lo, hi)
}

// prPullRange is one worker's share of a pull pass. rank[v] is read and
// written by this worker alone, and contributions are only read, their
// writers on the far side of the contribution pass's barrier: every access
// is a plain load or store (values.at, values.put).
//
// The fork on the backing is taken once per range, as fillContrib's is: a
// per-vertex accessor that forks cannot inline. On an in-only CSR the
// range is one flat loop over its spans and ID runs, summing each run in
// prPull's order, with its edges counted once; with the ID runs, the
// pass takes 30 % less time than the per-vertex pull over whole neighbors
// did (EXPERIMENTS.md, "FS PageRank pulls over an ID-only in-mirror").
// Every other backing pulls each vertex's run through inRun.
//
// saga:hotpath
func (e *fsEngine) prPullRange(wk *worker, lo, hi int) {
	rank, contrib, base := e.vals, e.pr.contrib, e.pr.base
	delta := 0.0
	if c := e.csr; c != nil && c.InIDs != nil {
		ids, edges := c.InIDs, 0
		for i, s := range c.InSpans[lo:hi] {
			sum := 0.0
			for _, u := range ids[s.Begin:s.End] {
				sum += contrib.at(int(u))
			}
			edges += s.Len()
			newv := base + prDamping*sum
			delta += abs(newv - rank.at(lo+i))
			rank.put(lo+i, newv)
		}
		wk.ctx.edges += uint64(edges)
	} else {
		ctx := &wk.ctx
		for v := lo; v < hi; v++ {
			newv := prPull(ctx.inRun(graph.NodeID(v)), contrib, base)
			delta += abs(newv - rank.at(v))
			rank.put(v, newv)
		}
	}
	wk.delta = delta
	wk.processed += uint64(hi - lo)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
