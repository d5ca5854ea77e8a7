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
	e.parents = e.parents[:0].sized(e.n)
	e.curr = append(e.curr[:0], e.opts.Source)
	unreached := e.n - 1
	for len(e.curr) > 0 {
		// Direction rule: bottom-up once the frontier's out-edges exceed
		// a quarter of the unreached vertex count, on frontiers of more
		// than 64 vertices. This is not GAP's rule (frontier edges against
		// a fifteenth of the unexplored edges) and not a frontier-size
		// threshold: on update-churn's graph it sends the 2 340-vertex,
		// 318 K-edge depth-1 frontier bottom-up, a full sweep of about
		// 17 ms where top-down costs 4.5 (EXPERIMENTS.md, "Staged hybrid
		// apply"). A better rule is ROADMAP.md item 13's; changing it
		// re-records fsBFSStatsGolden. The size test comes first, and the
		// degree sum stops as soon as it crosses the bound.
		if len(e.curr) > 64 && e.frontierEdgesExceed(ctx, unreached/4) {
			for _, u := range e.curr {
				e.parents.mark(u)
			}
			e.pullCuts()
			e.run(&e.bottomUp, e.cuts)
			for _, u := range e.curr {
				e.parents[u>>6] = 0
			}
		} else {
			e.cuts = balancedCuts(e.cuts, len(e.curr), threads, e.pushWeight)
			e.run(&e.topDown, e.cuts)
		}
		e.curr = e.front.drain(e.curr)
		unreached -= len(e.curr)
		e.stats.Iterations++
	}
}

// frontierEdgesExceed reports whether the frontier's out-degrees sum to
// more than limit, reading them only until the sum does.
func (e *fsEngine) frontierEdgesExceed(ctx *recomputeCtx, limit int) bool {
	edges := 0
	for _, u := range e.curr {
		if edges += ctx.outDegree(u); edges > limit {
			return true
		}
	}
	return false
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
// first. The parent test reads the last level's bitmap, GAP's
// front.get_bit(u): one bit per vertex, 32 KiB at 2^18 vertices, where
// the depth array is 2 MiB of random reads. No worker marks it during the
// pass. Slot v is written by this worker alone.
//
// saga:hotpath
func (e *fsEngine) bfsBottomUp(wk *worker, lo, hi int) {
	vals, front, parents, plain := e.vals, e.front, e.parents, e.plain
	depth := float64(e.stats.Iterations + 1)
	for v := lo; v < hi; v++ {
		if vals.get(v) != inf {
			continue
		}
		wk.processed++
		run := wk.ctx.inRun(graph.NodeID(v))
		for i, nb := range run {
			if parents.has(nb.ID) {
				wk.ctx.edges -= uint64(len(run) - 1 - i) // the rest of the run is never read
				vals.store(v, depth, plain)
				front.markOne(graph.NodeID(v), plain)
				break
			}
		}
	}
}
