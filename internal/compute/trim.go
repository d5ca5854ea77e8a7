package compute

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// DeletionAware is implemented by engines that can repair their state when
// the update phase removes edges. core.Pipeline.ProcessMixed calls
// NotifyDeletions after the topology change and before PerformAlg.
type DeletionAware interface {
	NotifyDeletions(g ds.Graph, dels graph.Batch)
}

// WeightChangeAware is implemented by engines that must additionally be
// told when an insert OVERWRITES an existing edge with a different weight.
// For the monotone weighted algorithms (SSSP, SSWP) a weight change is a
// deletion-like event: a value derived through the old weight may now be
// unreachable (SSWP: the edge narrowed; SSSP: the edge lengthened) and
// plain selective triggering cannot repair it when the stale value is
// self-supporting around a cycle. The pipeline reports the overwritten
// edges — carrying their OLD weights — through NotifyDeletions together
// with any true deletions, in one call, so the invalidation cone is grown
// against a consistent pre-reset value array.
type WeightChangeAware interface {
	DeletionAware
	// WantsWeightChanges reports whether the overwrite scan is needed at
	// all; weight-insensitive algorithms (BFS, CC, MC, PR) skip it.
	WantsWeightChanges() bool
}

// WantsWeightChanges implements WeightChangeAware: only the monotone
// algorithms whose values read edge weights need overwrite notifications.
func (e *incEngine) WantsWeightChanges() bool {
	return e.spec.weighted && e.spec.tight != nil
}

// NotifyDeletions implements KickStarter-style trimmed approximation (Vora
// et al., the paper's reference [12]) for the monotone incremental
// algorithms: a deleted edge may have been the support of its endpoint's
// value, and that endpoint the support of its dependents, so the engine
//
//  1. seeds an invalidation cone with deletion endpoints whose value was
//     *tight* through the removed edge (it could have been derived from
//     the other endpoint across that edge),
//  2. grows the cone along tight edges in the value-dependence direction
//     (out-edges for the pull-from-in-neighbors algorithms, both
//     directions for connectivity),
//  3. resets the cone to initial values, and
//  4. queues the cone as affected vertices, so the next PerformAlg's
//     selective triggering rebuilds them from their intact neighbors.
//
// Values outside the cone never depended on a deleted edge, so they remain
// exact; cone values are rebuilt monotonically from the survivors.
// PageRank needs no trimming — its damped recompute is a contraction that
// re-converges after any topology change — so it returns immediately.
func (e *incEngine) NotifyDeletions(g ds.Graph, dels graph.Batch) {
	if e.spec.tight == nil {
		return // non-monotone (PageRank): plain recompute handles it
	}
	n := g.NumNodes()
	for len(e.vals) < n {
		// Deletions arrive with adds in one mixed batch; make sure the
		// value array covers any vertices the adds introduced.
		e.vals = append(e.vals, 0)
		e.vals.set(len(e.vals)-1, e.spec.initValue(graph.NodeID(len(e.vals)-1), n))
	}
	// The cone is grown in the engine's frontier, which is empty between
	// phases, and drained out of it below.
	e.front = e.front.sized(n)
	cone := e.front
	var stack []graph.NodeID
	mark := func(v graph.NodeID) {
		if int(v) < n && !cone.has(v) && !(e.spec.hasSource && v == e.opts.Source) {
			cone.mark(v)
			stack = append(stack, v)
		}
	}
	// Seed: endpoints whose value was tight through a removed edge. An
	// undirected deletion removes both orientations from the store, so the
	// mirrored dependence (Src derived from Dst) must seed too — otherwise
	// Src-side values survive with phantom support.
	mirror := !g.Directed()
	for _, d := range dels {
		if int(d.Src) >= n || int(d.Dst) >= n {
			continue
		}
		w := float64(d.Weight)
		if e.spec.tight(e.vals.get(int(d.Src)), w, e.vals.get(int(d.Dst))) {
			mark(d.Dst)
		}
		if (e.spec.pushBoth || mirror) && e.spec.tight(e.vals.get(int(d.Dst)), w, e.vals.get(int(d.Src))) {
			mark(d.Src)
		}
	}
	// Grow the cone along tight dependence edges, judging tightness with
	// the pre-reset values. The push-direction runs come from worker 0's
	// accessor, bound here to g's backing: zero-copy on a view or a
	// lending store, else copied into the worker's push scratch.
	if len(e.workers) == 0 {
		e.workers = append(e.workers, worker{})
	}
	wk := &e.workers[0]
	wk.ctx.bind(g, flatCSROf(g))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		vv := e.vals.get(int(v))
		var outs, ins []graph.Neighbor
		outs, ins, wk.pushBuf = wk.ctx.pushRuns(v, e.spec.pushBoth, wk.pushBuf)
		for _, run := range [2][]graph.Neighbor{outs, ins} {
			for _, nb := range run {
				if !cone.has(nb.ID) && e.spec.tight(vv, float64(nb.Weight), e.vals.get(int(nb.ID))) {
					mark(nb.ID)
				}
			}
		}
	}
	wk.ctx.bind(nil, nil) // do not pin the graph until the next phase
	// Reset the cone and queue it, ascending, for the next compute phase.
	e.pendingInvalid = cone.drain(e.pendingInvalid)
	e.changed = e.changed.sized(n)
	for _, v := range e.pendingInvalid {
		e.vals.set(int(v), e.spec.initValue(v, n))
		e.note(v, true)
	}
}
