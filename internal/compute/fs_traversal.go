package compute

import (
	"sync/atomic"
	"time"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// fsBFS is GAP-style direction-optimizing BFS for the FS model: levels
// expand top-down (push over out-neighbors, claiming unvisited vertices
// with a CAS) while the frontier is small, and switch bottom-up (every
// unvisited vertex pulls over in-neighbors looking for a visited parent)
// once the frontier's edge volume crosses a fraction of the remaining
// unexplored edges — the Beamer et al. heuristic that GAP implements.
//
// On a graph exposing a flat CSR mirror the level loops iterate the
// index/adjacency arrays directly and rounds are partitioned by degree
// prefix sum; otherwise they fall back to the OutNeigh/InNeigh interface
// with uniform ranges.
func fsBFS(e *fsEngine, g ds.Graph) {
	n := g.NumNodes()
	src := e.opts.Source
	if int(src) >= n {
		return
	}
	csr := flatCSROf(g)
	e.resetVisited(n)
	e.visited[src] = 1
	frontier := append(e.frontier[:0], src)
	threads := e.opts.threads()
	var processed, edges atomic.Uint64
	depth := 0.0
	unvisited := n - 1
	for len(frontier) > 0 {
		depth++
		// Heuristic: frontier out-degree vs a slice of the unexplored
		// volume (GAP's alpha=15 tuning collapses to a frontier-size
		// threshold at our scales).
		frontierEdges := 0
		if csr != nil {
			for _, u := range frontier {
				frontierEdges += csr.OutDegree(u)
			}
		} else {
			for _, u := range frontier {
				frontierEdges += g.OutDegree(u)
			}
		}
		if frontierEdges > unvisited/4 && len(frontier) > 64 {
			frontier = e.bfsBottomUp(g, csr, depth, threads, &processed, &edges, frontier)
		} else {
			frontier = e.bfsTopDown(g, csr, depth, threads, &processed, &edges, frontier)
		}
		unvisited -= len(frontier)
		e.stats.Iterations++
	}
	e.frontier = frontier[:0]
	e.stats.Processed = processed.Load()
	e.stats.EdgesTraversed = edges.Load()
}

// bfsTopDown expands the frontier push-style and returns the next frontier.
// The frontier is split by out-degree prefix sum and workers collect
// discoveries in per-worker buffers merged lock-free at the end of the
// round.
func (e *fsEngine) bfsTopDown(g ds.Graph, csr *graph.CSR, depth float64, threads int, processed, edges *atomic.Uint64, frontier []graph.NodeID) []graph.NodeID {
	e.cuts = balancedCuts(e.cuts, len(frontier), threads, func(i int) int64 {
		if csr != nil {
			return int64(csr.OutDegree(frontier[i]))
		}
		return int64(g.OutDegree(frontier[i]))
	})
	k := len(e.cuts) - 1
	e.push.reset(k)
	parallelRanges(e.cuts, func(w, lo, hi int) {
		var t0 time.Time
		if e.opts.WorkerTiming {
			t0 = time.Now() // saga:allow determinism -- worker busy-time metric and trace spans only; never feeds values or frontier order.
		}
		sp := e.tr.Worker("fs.bfs.topdown", w)
		local := e.push.bufs[w]
		var buf []graph.Neighbor
		var nEdges uint64
		for _, u := range frontier[lo:hi] {
			var ns []graph.Neighbor
			ns, buf = outRunOf(g, csr, u, buf)
			nEdges += uint64(len(ns))
			for _, nb := range ns {
				if atomic.CompareAndSwapUint32(&e.visited[nb.ID], 0, 1) {
					e.vals.set(int(nb.ID), depth)
					local = append(local, nb.ID)
				}
			}
		}
		processed.Add(uint64(hi - lo))
		edges.Add(nEdges)
		e.push.bufs[w] = local
		sp.SetInt("depth", int64(depth))
		sp.SetInt("vertices", int64(hi-lo))
		sp.SetInt("edges", int64(nEdges))
		sp.End()
		if e.opts.WorkerTiming {
			e.clock.add(w, time.Since(t0)) // saga:allow determinism -- worker busy-time metric only.
		}
	})
	next := e.push.concat(e.next[:0], k)
	e.next = frontier
	return next
}

// bfsBottomUp sweeps every unvisited vertex, pulling over in-neighbors for
// a parent at the previous depth; it returns the next frontier. The sweep
// is split by in-degree prefix sum when the flat mirror is available
// (degree queries are two array loads there), else uniformly.
func (e *fsEngine) bfsBottomUp(g ds.Graph, csr *graph.CSR, depth float64, threads int, processed, edges *atomic.Uint64, frontier []graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	prev := depth - 1
	if csr != nil {
		e.cuts = balancedCuts(e.cuts, n, threads, func(i int) int64 {
			return int64(csr.InDegree(graph.NodeID(i)))
		})
	} else {
		e.cuts = uniformCuts(e.cuts, n, threads)
	}
	k := len(e.cuts) - 1
	e.push.reset(k)
	parallelRanges(e.cuts, func(w, lo, hi int) {
		var t0 time.Time
		if e.opts.WorkerTiming {
			t0 = time.Now() // saga:allow determinism -- worker busy-time metric and trace spans only; never feeds values or frontier order.
		}
		sp := e.tr.Worker("fs.bfs.bottomup", w)
		local := e.push.bufs[w]
		var buf []graph.Neighbor
		var nEdges uint64
		var nProc uint64
		for v := lo; v < hi; v++ {
			if atomic.LoadUint32(&e.visited[v]) != 0 {
				continue
			}
			nProc++
			var ns []graph.Neighbor
			if csr != nil {
				ns = csr.In(graph.NodeID(v))
			} else {
				buf = g.InNeigh(graph.NodeID(v), buf[:0])
				ns = buf
			}
			for _, nb := range ns {
				nEdges++
				if e.vals.get(int(nb.ID)) == prev {
					// No contention: v's slot is owned by this
					// range worker.
					atomic.StoreUint32(&e.visited[v], 1)
					e.vals.set(v, depth)
					local = append(local, graph.NodeID(v))
					break
				}
			}
		}
		processed.Add(nProc)
		edges.Add(nEdges)
		e.push.bufs[w] = local
		sp.SetInt("depth", int64(depth))
		sp.SetInt("vertices", int64(nProc))
		sp.SetInt("edges", int64(nEdges))
		sp.End()
		if e.opts.WorkerTiming {
			e.clock.add(w, time.Since(t0)) // saga:allow determinism -- worker busy-time metric only.
		}
	})
	next := e.push.concat(e.next[:0], k)
	e.next = frontier
	return next
}

// fsLabelProp runs round-synchronous pull-style propagation to a fixpoint:
// every active vertex recomputes its value from its neighbors (writing only
// its own slot, so rounds parallelize without atomics on the values), and
// changed vertices activate their push-direction neighbors for the next
// round. CC (min over both directions) and MC (max over in-edges) are both
// instances.
func fsLabelProp(e *fsEngine, g ds.Graph) {
	n := g.NumNodes()
	csr := flatCSROf(g)
	threads := e.opts.threads()
	// Round 1 processes every vertex.
	active := e.frontier[:0]
	for v := 0; v < n; v++ {
		active = append(active, graph.NodeID(v))
	}
	e.resetVisited(n)
	var processed, edges atomic.Uint64
	for len(active) > 0 {
		curr := active
		degOf := func(i int) int64 {
			v := curr[i]
			if csr != nil {
				d := csr.OutDegree(v)
				if e.spec.pushBoth {
					d += csr.InDegree(v)
				}
				return int64(d)
			}
			d := g.OutDegree(v)
			if e.spec.pushBoth {
				d += g.InDegree(v)
			}
			return int64(d)
		}
		e.cuts = balancedCuts(e.cuts, len(curr), threads, degOf)
		k := len(e.cuts) - 1
		e.push.reset(k)
		// Snapshot-free Gauss-Seidel rounds: values read may be from
		// this round or the last, which only accelerates convergence
		// of min/max fixpoints.
		parallelRanges(e.cuts, func(w, lo, hi int) {
			var t0 time.Time
			if e.opts.WorkerTiming {
				t0 = time.Now() // saga:allow determinism -- worker busy-time metric and trace spans only; never feeds values or frontier order.
			}
			sp := e.tr.Worker("fs.labelprop", w)
			ctx := &recomputeCtx{g: g, csr: csr, vals: e.vals, numNodes: n}
			local := e.push.bufs[w]
			var pushBuf []graph.Neighbor
			for _, v := range curr[lo:hi] {
				old := e.vals.get(int(v))
				newv := e.spec.recompute(ctx, v)
				if newv == old {
					continue
				}
				e.vals.set(int(v), newv)
				outs, ins, scratch := pushRuns(g, csr, v, e.spec.pushBoth, pushBuf)
				pushBuf = scratch
				ctx.edges += uint64(len(outs) + len(ins))
				for _, nb := range outs {
					if atomic.CompareAndSwapUint32(&e.visited[nb.ID], 0, 1) {
						local = append(local, nb.ID)
					}
				}
				for _, nb := range ins {
					if atomic.CompareAndSwapUint32(&e.visited[nb.ID], 0, 1) {
						local = append(local, nb.ID)
					}
				}
			}
			processed.Add(uint64(hi - lo))
			edges.Add(ctx.edges)
			e.push.bufs[w] = local
			// Iterations is coordinator-owned and stable for the round, so
			// reading it from workers is race-free.
			sp.SetInt("round", int64(e.stats.Iterations+1))
			sp.SetInt("vertices", int64(hi-lo))
			sp.SetInt("edges", int64(ctx.edges))
			sp.End()
			if e.opts.WorkerTiming {
				e.clock.add(w, time.Since(t0)) // saga:allow determinism -- worker busy-time metric only.
			}
		})
		next := e.push.concat(e.next[:0], k)
		for _, v := range next {
			e.visited[v] = 0
		}
		active, e.next = next, active
		e.stats.Iterations++
	}
	e.frontier = active[:0]
	e.stats.Processed = processed.Load()
	e.stats.EdgesTraversed = edges.Load()
}

func fsCC(e *fsEngine, g ds.Graph) { fsLabelProp(e, g) }

func fsMC(e *fsEngine, g ds.Graph) { fsLabelProp(e, g) }
