package compute

import (
	"testing"
	"time"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// These assertions cross-validate the saga:hotpath annotations in flat.go,
// frontier.go, rounds.go, vertexfn.go and the fs_*.go kernels (statically
// enforced by sagavet's hotalloc analyzer): once buffers are warm, neither
// the kernel inner-loop helpers nor a whole batch of either model touches
// the allocator.

// hotpathTestGraph is a 17-vertex star with every spoke both ways, plus
// the extra edges.
func hotpathTestGraph(t *testing.T, extra ...graph.Edge) (ds.Graph, *graph.CSR) {
	t.Helper()
	g := ds.MustNew("adjshared", ds.Config{Directed: true, Threads: 1})
	var batch graph.Batch
	for i := 1; i <= 16; i++ {
		batch = append(batch, graph.Edge{Src: 0, Dst: graph.NodeID(i), Weight: 1})
		batch = append(batch, graph.Edge{Src: graph.NodeID(i), Dst: 0, Weight: 1})
	}
	g.Update(append(batch, extra...))
	return g, graph.BuildCSR(g.NumNodes(), ds.ExportEdgesParallel(g, 1))
}

func TestPushRunsDoesNotAllocate(t *testing.T) {
	g, csr := hotpathTestGraph(t)
	copied := ds.MustNew("stinger", ds.Config{Directed: true, Threads: 1})
	copied.Update(ds.ExportEdgesParallel(g, 1))
	buf := make([]graph.Neighbor, 0, 128)
	var a, b []graph.Neighbor

	var flat, lent, plain recomputeCtx
	flat.bind(g, csr)
	lent.bind(g, nil)
	plain.bind(copied, nil)
	if lent.lender == nil || plain.lender != nil {
		t.Fatalf("adjshared lends its runs and stinger does not; bound lender %v and %v", lent.lender, plain.lender)
	}
	for _, both := range []bool{false, true} {
		for _, c := range []struct {
			path string
			ctx  *recomputeCtx
		}{{"flat", &flat}, {"lending", &lent}, {"copying", &plain}} {
			if allocs := testing.AllocsPerRun(100, func() {
				for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
					a, b, buf = c.ctx.pushRuns(v, both, buf)
				}
			}); allocs != 0 {
				t.Errorf("pushRuns (%s path, both=%v) allocates %.1f times per sweep", c.path, both, allocs)
			}
		}
	}
	_, _ = a, b
}

// With WorkerTiming on, a steady-state batch allocates nothing either: run
// reserves each pass's range records in engine scratch, which stops
// growing once a batch of the same shape has run, and rangeWorker only
// writes its own slot. The busy sums are the records' durations.
func TestRangeWorkerDoesNotAllocate(t *testing.T) {
	g, _ := hotpathTestGraph(t)
	e := newFSEngine(specs["pr"], Options{Threads: 1, WorkerTiming: true})
	e.PerformAlg(g, nil) // cold: sizes the vectors and the range records
	if allocs := testing.AllocsPerRun(20, func() { e.PerformAlg(g, nil) }); allocs != 0 {
		t.Errorf("FS PageRank batch with range records allocates %.1f times", allocs)
	}
	st := e.Stats()
	if len(st.Ranges) != 2*st.Iterations {
		t.Fatalf("%d range records for %d iterations of two passes", len(st.Ranges), st.Iterations)
	}
	var busy time.Duration
	for i, rg := range st.Ranges {
		if rg.Worker != 0 || rg.Step != i/2+1 || rg.Vertices != g.NumNodes() || rg.CountKey != "edges" {
			t.Fatalf("range %d: %+v", i, rg)
		}
		busy += rg.Dur
	}
	if len(st.WorkerBusyNS) != 1 || st.WorkerBusyNS[0] != int64(busy) {
		t.Fatalf("WorkerBusyNS %v, ranges sum to %d", st.WorkerBusyNS, busy)
	}
}

// prAllocGraphs returns the hotpath graph as the kernels see it on the
// interface path and on the flat view.
func prAllocGraphs(t *testing.T, extra ...graph.Edge) map[string]ds.Graph {
	t.Helper()
	g, _ := hotpathTestGraph(t, extra...)
	vg, _ := hotpathTestGraph(t, extra...)
	view, ok := ds.NewComputeView(vg, 1)
	if !ok {
		t.Fatal("adjshared has no compute view")
	}
	view.Refresh(nil, nil)
	return map[string]ds.Graph{"interface": g, "view": view}
}

// A steady-state FS PageRank batch — reset, the vertex sets, contribution
// passes, pull passes, convergence sum — allocates nothing at one thread:
// the sweep state lives in the engine and the range workers are bound
// once. A source (17 → 0) and a sink (0 → 18) make the sets skip
// vertices, and three iterations run every set the sweep uses.
func TestFSPRBatchDoesNotAllocate(t *testing.T) {
	extra := []graph.Edge{{Src: 17, Dst: 0, Weight: 1}, {Src: 0, Dst: 18, Weight: 1}}
	graphs := prAllocGraphs(t, extra...)
	ig, _ := hotpathTestGraph(t, extra...)
	inOnly, _ := ds.NewComputeView(ig, 1)
	inOnly.MirrorInOnly()
	inOnly.Refresh(nil, nil)
	graphs["in-only view"] = inOnly
	for path, g := range graphs {
		e := newFSEngine(specs["pr"], Options{Threads: 1})
		e.PerformAlg(g, nil) // cold: sizes the vectors and the sets, binds the workers
		if allocs := testing.AllocsPerRun(20, func() { e.PerformAlg(g, nil) }); allocs != 0 {
			t.Errorf("%s: FS PageRank batch allocates %.1f times", path, allocs)
		}
		if it := e.Stats().Iterations; it < 3 {
			t.Errorf("%s: %d iterations — the sets were not all exercised", path, it)
		}
		if n := g.NumNodes(); len(e.pr.pulled) != n-1 || len(e.pr.refilled) != n-2 {
			t.Errorf("%s: %d vertices pulled and %d refilled of %d — the sets skip nothing", path, len(e.pr.pulled), len(e.pr.refilled), n)
		}
	}
}

// A steady-state FS batch of every kernel that keeps a vertex set — the
// reset, BFS levels, label rounds from the full seed, delta-stepping's
// buckets, the widest-path relaxation — allocates nothing at one thread:
// the frontier, its list, the buckets and the workers live in the engine.
func TestFSBatchDoesNotAllocate(t *testing.T) {
	for _, alg := range []string{"bfs", "cc", "mc", "sssp", "sswp"} {
		for path, g := range prAllocGraphs(t) {
			e := newFSEngine(specs[alg], Options{Threads: 1, Delta: 1})
			e.PerformAlg(g, nil) // cold: sizes the values, the frontier, its list and the buckets
			if allocs := testing.AllocsPerRun(20, func() { e.PerformAlg(g, nil) }); allocs != 0 {
				t.Errorf("%s/%s: FS batch allocates %.1f times", alg, path, allocs)
			}
			if e.Stats().Iterations < 2 {
				t.Errorf("%s/%s: %d iterations — the kernel was not exercised", alg, path, e.Stats().Iterations)
			}
		}
	}
}

// A steady-state INC batch — contribution refresh and out-neighbourhood
// widening (PageRank), seeding and draining the frontier bitmap, rounds
// that settle and push — allocates nothing at one thread, in the one round
// body (spec.round) on the view and on the structure's interface. The
// values (and the contributions derived from them) are reset before each
// batch, so every batch runs several rounds; PageRank's
// vanishing epsilon keeps its recomputes triggering for as long as a
// value moves at all.
func TestIncBatchDoesNotAllocate(t *testing.T) {
	affected := []graph.NodeID{0, 3, 9}
	for _, alg := range []string{"pr", "cc"} {
		for path, g := range prAllocGraphs(t) {
			e := newIncEngine(specs[alg], Options{Threads: 1, Epsilon: 1e-300})
			batch := func() {
				for v := range e.vals {
					init := e.spec.initValue(graph.NodeID(v), len(e.vals))
					e.vals.put(v, init)
					if v < len(e.contrib) {
						e.contrib.put(v, contribOf(init, g.OutDegree(graph.NodeID(v))))
					}
				}
				e.PerformAlg(g, affected)
			}
			batch() // cold: grows values, contrib, the frontier and its list
			rounds := 0
			if allocs := testing.AllocsPerRun(20, func() {
				batch()
				rounds += e.Stats().Iterations
			}); allocs != 0 {
				t.Errorf("%s/%s: INC batch allocates %.1f times", alg, path, allocs)
			}
			if rounds < 2*21 {
				t.Errorf("%s/%s: %d rounds in 21 batches — pushes were not exercised", alg, path, rounds)
			}
		}
	}
}
