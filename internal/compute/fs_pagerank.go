package compute

import (
	"slices"

	"sagabench/internal/graph"
)

// prSweep is the state of an FS PageRank phase beyond what rounds holds.
type prSweep struct {
	// contrib[u] = rank[u]/outdeg(u) as of the current iteration's start.
	contrib values
	base    float64 // (1-d)/|V|
	// contribCuts cuts the contribution pass uniformly (every vertex
	// costs one division); rounds.cuts cuts the pull pass.
	contribCuts []int

	// The vertices whose value can still change after the first sweeps,
	// ascending: pulled holds those with a non-empty in-run, refilled
	// those of them with out-degree > 0. pulledCuts cut pulled where
	// rounds.cuts cut the vertex range; refilledCuts cut refilled
	// uniformly. pullSet and contribSet are what the passes in flight
	// visit (nil: every vertex).
	pulled, refilled         []graph.NodeID
	pulledCuts, refilledCuts []int
	pullSet, contribSet      vertexSet

	contribPass, pullPass pass
}

// vertexSet is the vertices a sweep visits, by position: entry i of the
// list, or vertex i itself when the list is nil (every vertex).
type vertexSet []graph.NodeID

func (s vertexSet) at(i int) int {
	if s == nil {
		return i
	}
	return int(s[i])
}

// fsPR is GAP's PageRank (pr.cc): per iteration a contribution pass
// contrib[u] = rank[u]/outdeg(u), a barrier, and a pull pass rank[v] =
// base + d·Σ contrib[in(v)], until the summed absolute rank change drops
// below the tolerance (GAP's convergence criterion) or the iteration cap
// is reached. The pull reads only contrib, so ranks are updated in place
// and the sweeps stay Jacobi.
//
// The first iteration sweeps every vertex. After it, a vertex with an
// empty in-run holds base for good: from the second iteration the pull
// visits only the others (prSweep.pulled), and from the third, once the
// fixed ranks' contributions are stored, the contribution pass refills
// only the vertices that are pulled and have an out-edge
// (prSweep.refilled) — a sink's contribution is 0 and no pull reads it.
// A skipped vertex would have stored its own value again and added +0 to
// its worker's change sum, and the pull ranges cut the same vertices as
// the full sweep's, so ranks, the sums and the iteration count are the
// full sweep's bit for bit.
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
	// iterations — so they are computed once, as are the sets.
	e.pullCuts()
	p.contribCuts = graph.UniformCuts(p.contribCuts, n, threads)
	e.prSets()

	pullCuts, contribCuts := e.cuts, p.contribCuts
	p.pullSet, p.contribSet = nil, nil // a phase that died mid-sweep left them set
	for e.stats.Iterations < maxIters {
		switch e.stats.Iterations {
		case 1:
			p.pullSet, pullCuts = p.pulled, p.pulledCuts
		case 2:
			p.contribSet, contribCuts = p.refilled, p.refilledCuts
		}
		e.run(&p.contribPass, contribCuts)
		e.run(&p.pullPass, pullCuts)
		e.stats.Iterations++
		sumDelta := 0.0
		for w := range e.workers[:len(pullCuts)-1] {
			sumDelta += e.workers[w].delta
		}
		if sumDelta < tol {
			break
		}
	}
}

// prSets derives the sweep's vertex sets from the degrees, through the
// worker accessor of whatever backs the phase, and cuts them; rounds.cuts
// must hold the pull cuts. Sequential, into storage the engine keeps.
func (e *fsEngine) prSets() {
	p := &e.pr
	p.pulled, p.refilled = e.workers[0].ctx.prSets(e.n, p.pulled[:0], p.refilled[:0])
	p.pulledCuts = p.pulledCuts[:0]
	for _, c := range e.cuts {
		i, _ := slices.BinarySearch(p.pulled, graph.NodeID(c))
		p.pulledCuts = append(p.pulledCuts, i)
	}
	p.refilledCuts = graph.UniformCuts(p.refilledCuts, len(p.refilled), e.opts.threads())
}

// prContribRange is one worker's share of a contribution pass. Slot u is
// written by this worker alone and read only after the pass's barrier.
//
// saga:hotpath
func (e *fsEngine) prContribRange(wk *worker, lo, hi int) {
	wk.ctx.fillContrib(e.pr.contrib, e.vals, e.pr.contribSet, lo, hi)
}

// prPullRange is one worker's share of a pull pass: positions [lo,hi) of
// the pass's vertex set. rank[v] is read and written by this worker
// alone, and contributions are only read, their writers on the far side
// of the contribution pass's barrier: every access is a plain load or
// store (values.at, values.put).
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
	rank, contrib, base, set := e.vals, e.pr.contrib, e.pr.base, e.pr.pullSet
	delta := 0.0
	if c := e.csr; c != nil && c.InIDs != nil {
		ids, spans, edges := c.InIDs, c.InSpans, 0
		for i := lo; i < hi; i++ {
			v := set.at(i)
			s := spans[v]
			sum := 0.0
			for _, u := range ids[s.Begin:s.End] {
				sum += contrib.at(int(u))
			}
			edges += s.Len()
			newv := base + prDamping*sum
			delta += abs(newv - rank.at(v))
			rank.put(v, newv)
		}
		wk.ctx.edges += uint64(edges)
	} else {
		ctx := &wk.ctx
		for i := lo; i < hi; i++ {
			v := set.at(i)
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
