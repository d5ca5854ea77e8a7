package compute_test

import (
	"fmt"
	"math"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// prFullSweep is FS PageRank with every pass over every vertex, as the
// engine ran it before its sweeps skipped the ranks that cannot change:
// per iteration a contribution pass and a pull pass whose change sum is
// taken per range of cuts, in vertex order, and then over the ranges in
// order — what the engine's workers and its convergence test do. It reads
// g through its interface and returns the ranks and the iteration count.
func prFullSweep(g ds.Graph, cuts []int, tol float64, maxIters int) ([]float64, int) {
	n := g.NumNodes()
	rank, contrib := make([]float64, n), make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	base := 0.15 / float64(n)
	var buf []graph.Neighbor
	iters := 0
	for iters < maxIters {
		for u := range contrib {
			contrib[u] = 0
			if d := g.OutDegree(graph.NodeID(u)); d > 0 {
				contrib[u] = rank[u] / float64(d)
			}
		}
		sumDelta := 0.0
		for w := 0; w+1 < len(cuts); w++ {
			delta := 0.0
			for v := cuts[w]; v < cuts[w+1]; v++ {
				sum := 0.0
				buf = g.InNeigh(graph.NodeID(v), buf[:0])
				for _, nb := range buf {
					sum += contrib[nb.ID]
				}
				newv := base + 0.85*sum
				delta += math.Abs(newv - rank[v])
				rank[v] = newv
			}
			sumDelta += delta
		}
		iters++
		if sumDelta < tol {
			break
		}
	}
	return rank, iters
}

// TestFSPRSetsMatchFullSweep holds FS PageRank, which pulls only the
// vertices with an in-edge after its first sweep and refills only the
// contributions that can still change after its second, to the full
// sweep bit for bit: every rank and the iteration count after every
// batch, at one and four threads, on the interface path of a lending and
// of a copying structure, on the compute view and on an in-only view. The
// stream inserts, deletes a quarter of the previous batch again and
// widens the vertex space, and its graphs hold vertices with an empty
// in-run and with an empty out-run. Processed counts the vertices pulled:
// all of them once, then those with an in-edge, each worker those of the
// range the full sweep gives it.
func TestFSPRSetsMatchFullSweep(t *testing.T) {
	const batchSize, batches = 500, 12
	spec := gen.MustDataset("rmat", gen.ProfileTiny)
	spec.Directed = true
	edges := spec.Generate(20261018)[:batchSize*batches]
	for _, dsName := range []string{"adjshared", "dah"} {
		for _, path := range []string{"interface", "view", "in-only-view"} {
			for _, threads := range []int{1, 4} {
				opts := compute.Options{Threads: threads, PRTolerance: 1e-4, PRMaxIters: 20, WorkerTiming: true}
				name := fmt.Sprintf("%s/%s/threads=%d", dsName, path, threads)
				t.Run(name, func(t *testing.T) { fsPRSetsRun(t, dsName, path, opts, edges, batchSize) })
			}
		}
	}
}

func fsPRSetsRun(t *testing.T, dsName, path string, opts compute.Options, edges []graph.Edge, batchSize int) {
	g := ds.MustNew(dsName, ds.Config{Directed: true, Threads: opts.Threads})
	var cg ds.Graph = g
	var view *ds.ComputeView
	if path != "interface" {
		view, _ = ds.NewComputeView(g, opts.Threads)
		if path == "in-only-view" {
			view.MirrorInOnly()
		}
		cg = view
	}
	e := compute.MustNewEngine("pr", compute.FS, opts)
	var prev, dels graph.Batch
	var sources, sinks, growths, deletes int
	for lo := 0; lo < len(edges); lo += batchSize {
		adds := graph.Batch(edges[lo : lo+batchSize])
		dels = dels[:0]
		for i := 0; i < len(prev); i += 4 {
			dels = append(dels, prev[i])
		}
		n0 := g.NumNodes()
		g.Update(adds)
		if err := g.(ds.Deleter).Delete(dels); err != nil {
			t.Fatal(err)
		}
		if view != nil {
			view.Refresh(adds, dels)
		}
		prev, deletes = adds, deletes+len(dels)
		if lo > 0 && g.NumNodes() > n0 {
			growths++
		}
		e.PerformAlg(cg, nil)

		n, cuts := g.NumNodes(), compute.PullCuts(cg, opts.Threads)
		want, iters := prFullSweep(g, cuts, opts.PRTolerance, opts.PRMaxIters)
		got, st := e.Values(), e.Stats()
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("batch at %d: rank[%d] = %v, the full sweep %v", lo, v, got[v], want[v])
			}
		}
		if st.Iterations != iters {
			t.Fatalf("batch at %d: %d iterations, the full sweep %d", lo, st.Iterations, iters)
		}
		pulled, inEdges := 0, 0
		rangePulled := make([]int, len(cuts)-1) // vertices with an in-edge per pull range
		for v := range graph.NodeID(n) {
			in, out := g.InDegree(v), g.OutDegree(v)
			if in > 0 {
				pulled++
				for w := range rangePulled {
					if int(v) >= cuts[w] && int(v) < cuts[w+1] {
						rangePulled[w]++
					}
				}
			} else {
				sources++
			}
			if out == 0 {
				sinks++
			}
			inEdges += in
		}
		if want := uint64(n + (iters-1)*pulled); st.Processed != want {
			t.Fatalf("batch at %d: processed %d, want %d vertices + %d iterations × %d with an in-edge", lo, st.Processed, n, iters-1, pulled)
		}
		if want := uint64(iters * inEdges); st.EdgesTraversed != want {
			t.Fatalf("batch at %d: %d edges traversed, want %d iterations × %d in-edges", lo, st.EdgesTraversed, iters, inEdges)
		}
		// Each worker pulls the vertices of its full-sweep range: the
		// change sums group as the full sweep's do.
		for _, rg := range st.Ranges {
			want := cuts[rg.Worker+1] - cuts[rg.Worker]
			if rg.Step > 1 {
				want = rangePulled[rg.Worker]
			}
			if rg.Pass == "fs.pr.iter" && rg.Vertices != want {
				t.Fatalf("batch at %d: iteration %d worker %d pulled %d vertices, want %d", lo, rg.Step, rg.Worker, rg.Vertices, want)
			}
		}
	}
	if sources == 0 || sinks == 0 || growths < 2 || deletes == 0 {
		t.Fatalf("stream too tame: %d empty in-runs, %d empty out-runs, %d vertex-count growths, %d deletes", sources, sinks, growths, deletes)
	}
}
