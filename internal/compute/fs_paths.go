package compute

import (
	"math"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// fsSSSP is delta-stepping shortest paths (the optimized GAP FS
// implementation the paper credits for SSSP's FS competitiveness): vertices
// are binned by tentative distance into buckets of width delta; buckets are
// drained in order, re-relaxing within a bucket until it stabilizes before
// moving to the next.
func fsSSSP(e *fsEngine, g ds.Graph) {
	n := g.NumNodes()
	src := e.opts.Source
	if int(src) >= n {
		return
	}
	csr := flatCSROf(g)
	delta := e.opts.delta()
	dist := e.vals
	buckets := make([][]graph.NodeID, 0, 64)
	place := func(v graph.NodeID, d float64) {
		idx := int(d / delta)
		for len(buckets) <= idx {
			buckets = append(buckets, nil)
		}
		buckets[idx] = append(buckets[idx], v)
	}
	place(src, 0)

	var buf []graph.Neighbor
	var processed, edges uint64
	for i := 0; i < len(buckets); i++ {
		// Re-drain bucket i until no relaxation re-inserts into it
		// (light-edge re-relaxation of classic delta-stepping).
		for len(buckets[i]) > 0 {
			frontier := buckets[i]
			buckets[i] = nil
			e.stats.Iterations++
			for _, u := range frontier {
				// Skip stale entries that were settled at a
				// smaller distance by an earlier relaxation.
				if int(dist.get(int(u))/delta) < i {
					continue
				}
				processed++
				du := dist.get(int(u))
				var ns []graph.Neighbor
				ns, buf = outRunOf(g, csr, u, buf)
				edges += uint64(len(ns))
				for _, nb := range ns {
					nd := du + float64(nb.Weight)
					if nd < dist.get(int(nb.ID)) {
						dist.set(int(nb.ID), nd)
						place(nb.ID, nd)
					}
				}
			}
		}
	}
	e.stats.Processed = processed
	e.stats.EdgesTraversed = edges
}

// fsSSWP is single-source widest paths (not in GAP; implemented from
// scratch, paper Section III-B): label-correcting propagation of the
// max-min vertex function from the source over out-edges.
func fsSSWP(e *fsEngine, g ds.Graph) {
	n := g.NumNodes()
	src := e.opts.Source
	if int(src) >= n {
		return
	}
	csr := flatCSROf(g)
	width := e.vals
	e.resetVisited(n)
	frontier := append(e.frontier[:0], src)
	e.visited[src] = 1
	var buf []graph.Neighbor
	var processed, edges uint64
	for len(frontier) > 0 {
		next := e.next[:0]
		e.stats.Iterations++
		for _, u := range frontier {
			e.visited[u] = 0
			processed++
			wu := width.get(int(u))
			var ns []graph.Neighbor
			ns, buf = outRunOf(g, csr, u, buf)
			edges += uint64(len(ns))
			for _, nb := range ns {
				w := math.Min(wu, float64(nb.Weight))
				if w > width.get(int(nb.ID)) {
					width.set(int(nb.ID), w)
					if e.visited[nb.ID] == 0 {
						e.visited[nb.ID] = 1
						next = append(next, nb.ID)
					}
				}
			}
		}
		frontier, e.next = next, frontier
	}
	e.frontier = frontier[:0]
	e.stats.Processed = processed
	e.stats.EdgesTraversed = edges
}
