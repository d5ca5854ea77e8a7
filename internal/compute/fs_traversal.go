package compute

import (
	"math"

	"sagabench/internal/graph"
)

// fsBFS is GAP-style direction-optimizing BFS for the FS model (Beamer et
// al., SC 2012; GAP's bfs.cc): levels expand top-down (push over
// out-neighbors, claiming unreached vertices) or bottom-up (every
// unreached vertex pulls over in-neighbors looking for a parent on the
// last level), switching by GAP's two rules:
//
//   - top-down → bottom-up when the frontier, of more than 64 vertices,
//     has more out-edges than unexplored/bfsAlpha. unexplored starts at
//     NumEdges — the out-adjacency records the degree reads sum over, on
//     either backing, directed or undirected — and every top-down level
//     subtracts its frontier's out-degrees. The sum stops once it crosses
//     the bound, so the level that switches pays only for the part it read;
//   - bottom-up → top-down when the frontier both shrank and holds at most
//     n/bfsBeta vertices. This reads only the frontier's length: bottom-up
//     levels sum no degrees, and the level that leaves runs top-down
//     without one, as GAP's does.
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
	unexplored, bottomUp, last := ctx.g.NumEdges(), false, 0
	for len(e.curr) > 0 {
		if bottomUp {
			bottomUp = len(e.curr) >= last || len(e.curr) > e.n/bfsBeta
		} else {
			limit := math.MaxInt
			if len(e.curr) > 64 {
				limit = unexplored / bfsAlpha
			}
			edges := e.frontierEdges(ctx, limit)
			if bottomUp = edges > limit; !bottomUp {
				unexplored -= edges
			}
		}
		if bottomUp {
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
		last = len(e.curr)
		e.curr = e.front.drain(e.curr)
		e.stats.Iterations++
	}
}

// The direction rule's divisors, Beamer et al.'s α and β, tuned on
// per-level tables that run both directions from the same state
// (EXPERIMENTS.md, "GAP's direction rule"): on update-churn's RMAT graph
// and on talk- and wiki-shaped graphs, on hybrid's interface path and on
// the flat view, every α in (1.26, 3.00] and every β in (6.3, 18.3] picks
// the faster side at every level the rule decides; each value sits about
// 1.5× from both ends of its range. GAP's α = 15 sends update-churn's
// 2 400-vertex depth-1 frontier bottom-up, and its β = 18 leaves that
// graph's depth-4 frontier top-down with 2 % to spare.
const (
	bfsAlpha = 2
	bfsBeta  = 12
)

// frontierEdges sums the frontier's out-degrees, reading them only until
// the sum passes limit.
func (e *fsEngine) frontierEdges(ctx *recomputeCtx, limit int) int {
	edges := 0
	for _, u := range e.curr {
		if edges += ctx.outDegree(u); edges > limit {
			break
		}
	}
	return edges
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
