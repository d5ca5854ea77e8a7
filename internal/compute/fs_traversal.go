package compute

import "sagabench/internal/graph"

// fsBFS is GAP-style direction-optimizing BFS for the FS model: levels
// expand top-down (push over out-neighbors, claiming unreached vertices)
// while the frontier is small, and switch bottom-up (every unreached
// vertex pulls over in-neighbors looking for a parent on the last level)
// once the frontier's edge volume crosses a fraction of the remaining
// unexplored edges — the Beamer et al. heuristic that GAP implements.
//
// Both steps mark the level they discover in the frontier bitmap, and the
// next level is its ascending drain. The depth array is GAP's parent
// array: a vertex is unreached while its depth is inf, so there is no
// visited set to keep beside it. Two workers may claim one vertex in the
// same level; they store the same depth and set the same bit.
func fsBFS(e *fsEngine) {
	ctx, threads := &e.workers[0].ctx, e.opts.threads()
	e.curr = append(e.curr[:0], e.opts.Source)
	unreached := e.n - 1
	for len(e.curr) > 0 {
		// Heuristic: frontier out-degree vs a slice of the unexplored
		// volume (GAP's alpha=15 tuning collapses to a frontier-size
		// threshold at our scales).
		frontierEdges := 0
		for _, u := range e.curr {
			frontierEdges += ctx.outDegree(u)
		}
		if frontierEdges > unreached/4 && len(e.curr) > 64 {
			e.pullCuts()
			e.run(&e.bottomUp, e.cuts)
		} else {
			e.cuts = balancedCuts(e.cuts, len(e.curr), threads, e.pushWeight)
			e.run(&e.topDown, e.cuts)
		}
		e.curr = e.front.drain(e.curr)
		unreached -= len(e.curr)
		e.stats.Iterations++
	}
}

// bfsTopDown expands its share of the frontier push-style: every
// unreached out-neighbor is on the next level.
//
// saga:hotpath
func (e *fsEngine) bfsTopDown(wk *worker, lo, hi int) {
	vals, front, plain := e.vals, e.front, e.plain
	depth := float64(e.stats.Iterations + 1)
	for _, u := range e.curr[lo:hi] {
		for _, nb := range wk.ctx.outRun(u) {
			if vals.get(int(nb.ID)) == inf {
				vals.store(int(nb.ID), depth, plain)
				front.markOne(nb.ID, plain)
			}
		}
	}
	wk.processed += uint64(hi - lo)
}

// bfsBottomUp sweeps its share of the vertices: every unreached one pulls
// over its in-neighbors for a parent on the last level, and stops at the
// first. Slot v is written by this worker alone.
//
// saga:hotpath
func (e *fsEngine) bfsBottomUp(wk *worker, lo, hi int) {
	vals, front, plain := e.vals, e.front, e.plain
	depth := float64(e.stats.Iterations + 1)
	prev := depth - 1
	for v := lo; v < hi; v++ {
		if vals.get(v) != inf {
			continue
		}
		wk.processed++
		run := wk.ctx.inRun(graph.NodeID(v))
		for i, nb := range run {
			if vals.get(int(nb.ID)) == prev {
				wk.ctx.edges -= uint64(len(run) - 1 - i) // the rest of the run is never read
				vals.store(v, depth, plain)
				front.markOne(graph.NodeID(v), plain)
				break
			}
		}
	}
}
