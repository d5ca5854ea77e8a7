package compute

import (
	"math"

	"sagabench/internal/graph"
)

// ssspLastBucket is the index of delta-stepping's last bucket, which holds
// every distance from ssspLastBucket·delta up. An edge list may carry any
// positive finite float32 weight, so an index computed from the distance
// alone is unbounded (one edge of weight 3e9 would ask for 375 M buckets
// at the default delta, and past 2^63·delta the conversion to int is
// undefined); clamped, the last bucket re-drains until it is stable like
// any other, which is label correcting over the far distances — still
// exact.
const ssspLastBucket = 1023

// bucketOf is the bucket of distance d, clamped in float space.
func bucketOf(d, delta float64) int {
	if q := d / delta; q < ssspLastBucket {
		return int(q)
	}
	return ssspLastBucket
}

// place files v under its tentative distance d.
func (e *fsEngine) place(v graph.NodeID, d, delta float64) {
	b := bucketOf(d, delta)
	for len(e.buckets) <= b {
		e.buckets = append(e.buckets, nil)
	}
	e.buckets[b] = append(e.buckets[b], v)
}

// fsSSSP is delta-stepping shortest paths (the optimized GAP FS
// implementation the paper credits for SSSP's FS competitiveness): vertices
// are binned by tentative distance into buckets of width delta; buckets are
// drained in order, re-relaxing within a bucket until it stabilizes before
// moving to the next. Buckets are lists with repeats, not a vertex set, so
// they stay beside the frontier; sequential, so plain stores.
func fsSSSP(e *fsEngine) {
	delta := e.opts.delta()
	wk, dist := &e.workers[0], e.vals
	for i := range e.buckets {
		e.buckets[i] = e.buckets[i][:0] // what a failed phase left behind
	}
	e.place(e.opts.Source, 0, delta)
	for i := 0; i < len(e.buckets); i++ {
		// Re-drain bucket i until no relaxation re-inserts into it
		// (light-edge re-relaxation of classic delta-stepping). The
		// drained list is a copy, so the bucket keeps its storage.
		for len(e.buckets[i]) > 0 {
			e.curr = append(e.curr[:0], e.buckets[i]...)
			e.buckets[i] = e.buckets[i][:0]
			e.stats.Iterations++
			for _, u := range e.curr {
				// Skip stale entries that were settled at a
				// smaller distance by an earlier relaxation.
				du := dist.get(int(u))
				if bucketOf(du, delta) < i {
					continue
				}
				wk.processed++
				for _, nb := range wk.ctx.outRun(u) {
					if nd := du + float64(nb.Weight); nd < dist.get(int(nb.ID)) {
						dist.put(int(nb.ID), nd)
						e.place(nb.ID, nd, delta)
					}
				}
			}
		}
	}
}

// fsSSWP is single-source widest paths (not in GAP; implemented from
// scratch, paper Section III-B): label-correcting propagation of the
// max-min vertex function from the source over out-edges, a widened
// vertex joining the next round's frontier. Sequential, so plain stores
// and marks.
func fsSSWP(e *fsEngine) {
	wk, width := &e.workers[0], e.vals
	e.curr = append(e.curr[:0], e.opts.Source)
	for len(e.curr) > 0 {
		for _, u := range e.curr {
			wu := width.get(int(u))
			for _, nb := range wk.ctx.outRun(u) {
				if w := math.Min(wu, float64(nb.Weight)); w > width.get(int(nb.ID)) {
					width.put(int(nb.ID), w)
					e.front.mark(nb.ID)
				}
			}
		}
		wk.processed += uint64(len(e.curr))
		e.curr = e.front.drain(e.curr)
		e.stats.Iterations++
	}
}
