package all_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// randomBatches produces deterministic random batches over a vertex space
// sized to produce plenty of duplicate edges (exercising unique ingestion).
func randomBatches(rng *rand.Rand, numBatches, batchSize, numNodes int) []graph.Batch {
	batches := make([]graph.Batch, numBatches)
	for b := range batches {
		batch := make(graph.Batch, batchSize)
		for i := range batch {
			src := graph.NodeID(rng.Intn(numNodes))
			dst := graph.NodeID(rng.Intn(numNodes))
			batch[i] = graph.Edge{Src: src, Dst: dst, Weight: pairWeight(src, dst)}
		}
		batches[b] = batch
	}
	return batches
}

// pairWeight derives a weight deterministically (and symmetrically, for
// undirected ingestion) from the endpoints so that duplicate edges ingested
// in nondeterministic parallel order still agree with the oracle.
func pairWeight(src, dst graph.NodeID) graph.Weight {
	return graph.Weight((uint32(src)^uint32(dst))*13+(uint32(src)+uint32(dst))*3) + 1
}

// hubBatches produces heavy-tailed batches: a large share of the edges
// touch a single hub vertex, mimicking the Wiki/Talk per-batch degree
// profile that stresses intra-node behaviour.
func hubBatches(rng *rand.Rand, numBatches, batchSize, numNodes int, hub graph.NodeID) []graph.Batch {
	batches := make([]graph.Batch, numBatches)
	for b := range batches {
		batch := make(graph.Batch, batchSize)
		for i := range batch {
			e := graph.Edge{
				Src: graph.NodeID(rng.Intn(numNodes)),
				Dst: graph.NodeID(rng.Intn(numNodes)),
			}
			switch rng.Intn(3) {
			case 0:
				e.Src = hub
			case 1:
				e.Dst = hub
			}
			e.Weight = pairWeight(e.Src, e.Dst)
			batch[i] = e
		}
		batches[b] = batch
	}
	return batches
}

// checkAgainstOracle asserts the structure's topology is identical to the
// oracle's, via the same exhaustive diff the crosscheck harness uses.
func checkAgainstOracle(t *testing.T, name string, g ds.Graph, oracle *graph.Oracle) {
	t.Helper()
	if diffs := ds.DiffOracle(g, oracle, 8); len(diffs) != 0 {
		t.Fatalf("%s: topology diverges from oracle:\n  %s", name, strings.Join(diffs, "\n  "))
	}
	checkBorrowedRuns(t, name, g)
	checkAppendedRuns(t, name, g)
}

// checkAppendedRuns: OutNeigh and InNeigh append. Read into one buffer
// behind a prefix, as the kernels read both directions of a vertex on a
// copying store, each vertex's in-run follows its out-run, each half is
// what a read into an empty buffer returns, and the prefix survives.
func checkAppendedRuns(t *testing.T, name string, g ds.Graph) {
	t.Helper()
	prefix := []graph.Neighbor{{ID: 1<<31 - 1, Weight: 3}, {ID: 5, Weight: 9}}
	var buf []graph.Neighbor
	for v := graph.NodeID(0); int(v) < g.NumNodes()+2; v++ {
		out, in := g.OutNeigh(v, nil), g.InNeigh(v, nil)
		buf = g.InNeigh(v, g.OutNeigh(v, append(buf[:0], prefix...)))
		p, o := len(prefix), len(prefix)+len(out)
		if len(buf) != o+len(in) || !slices.Equal(buf[:p], prefix) ||
			!slices.Equal(buf[p:o], out) || !slices.Equal(buf[o:], in) {
			t.Fatalf("%s: vertex %d read into one buffer behind %v gives %v; out-run %v, in-run %v",
				name, v, prefix, buf, out, in)
		}
	}
}

// checkBorrowedRuns: a structure that lends its adjacency in place hands
// out exactly what OutNeigh and InNeigh copy, record for record, and
// nothing past the vertex space.
func checkBorrowedRuns(t *testing.T, name string, g ds.Graph) {
	t.Helper()
	tc, ok := g.(*ds.TwoCopy)
	if !ok || !tc.LendsRuns() {
		return
	}
	var buf []graph.Neighbor
	for v := graph.NodeID(0); int(v) < g.NumNodes()+2; v++ {
		if buf = g.OutNeigh(v, buf[:0]); !slices.Equal(tc.OutRun(v), buf) {
			t.Fatalf("%s: OutRun(%d) = %v, OutNeigh copies %v", name, v, tc.OutRun(v), buf)
		}
		if buf = g.InNeigh(v, buf[:0]); !slices.Equal(tc.InRun(v), buf) {
			t.Fatalf("%s: InRun(%d) = %v, InNeigh copies %v", name, v, tc.InRun(v), buf)
		}
	}
}

// TestWhichStructuresLendRuns pins the set: the three whose per-vertex
// adjacency is one contiguous slice. Stinger's blocks and DAH's tables are
// copied out.
func TestWhichStructuresLendRuns(t *testing.T) {
	want := map[string]bool{"adjshared": true, "adjchunked": true, "hybrid": true}
	for _, directed := range []bool{true, false} {
		for _, name := range ds.Names() {
			tc, ok := ds.MustNew(name, ds.Config{Directed: directed, Threads: 2}).(*ds.TwoCopy)
			if got := ok && tc.LendsRuns(); got != want[name] {
				t.Errorf("%s directed=%v: LendsRuns = %v, want %v", name, directed, got, want[name])
			}
		}
	}
}

func runEquivalence(t *testing.T, directed bool, threads int, batches []graph.Batch) {
	oracle := graph.NewOracle(directed)
	cfg := ds.Config{Directed: directed, Threads: threads}
	graphs := map[string]ds.Graph{}
	for _, name := range ds.Names() {
		graphs[name] = ds.MustNew(name, cfg)
	}
	for _, b := range batches {
		oracle.Update(b)
		for name, g := range graphs {
			g.Update(b)
			_ = name
		}
	}
	for name, g := range graphs {
		checkAgainstOracle(t, name, g, oracle)
	}
}

func TestAllStructuresMatchOracleDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	runEquivalence(t, true, 4, randomBatches(rng, 8, 1500, 400))
}

func TestAllStructuresMatchOracleUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	runEquivalence(t, true, 4, randomBatches(rng, 6, 1000, 300))
	rng = rand.New(rand.NewSource(3))
	runEquivalence(t, false, 4, randomBatches(rng, 6, 1000, 300))
}

func TestAllStructuresMatchOracleHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	runEquivalence(t, true, 8, hubBatches(rng, 6, 2000, 500, 7))
}

func TestAllStructuresSingleThread(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	runEquivalence(t, true, 1, randomBatches(rng, 4, 800, 200))
}

func TestDuplicateEdgeOverwritesWeight(t *testing.T) {
	for _, name := range ds.Names() {
		g := ds.MustNew(name, ds.Config{Directed: true, Threads: 2})
		g.Update(graph.Batch{{Src: 1, Dst: 2, Weight: 5}})
		g.Update(graph.Batch{{Src: 1, Dst: 2, Weight: 9}})
		if got := g.NumEdges(); got != 1 {
			t.Errorf("%s: NumEdges=%d want 1", name, got)
		}
		ns := g.OutNeigh(1, nil)
		if len(ns) != 1 || ns[0].ID != 2 || ns[0].Weight != 9 {
			t.Errorf("%s: OutNeigh(1)=%v want [{2 9}]", name, ns)
		}
	}
}

func TestEmptyBatchIsNoOp(t *testing.T) {
	for _, name := range ds.Names() {
		g := ds.MustNew(name, ds.Config{Directed: true, Threads: 2})
		g.Update(nil)
		g.Update(graph.Batch{})
		if g.NumNodes() != 0 || g.NumEdges() != 0 {
			t.Errorf("%s: not empty after empty updates", name)
		}
	}
}

func TestOutOfRangeQueriesAreSafe(t *testing.T) {
	for _, name := range ds.Names() {
		g := ds.MustNew(name, ds.Config{Directed: true, Threads: 1})
		g.Update(graph.Batch{{Src: 0, Dst: 1, Weight: 1}})
		if d := g.OutDegree(99); d != 0 {
			t.Errorf("%s: OutDegree(99)=%d want 0", name, d)
		}
		if d := g.InDegree(99); d != 0 {
			t.Errorf("%s: InDegree(99)=%d want 0", name, d)
		}
		if ns := g.OutNeigh(99, nil); len(ns) != 0 {
			t.Errorf("%s: OutNeigh(99)=%v want empty", name, ns)
		}
		if ns := g.InNeigh(99, nil); len(ns) != 0 {
			t.Errorf("%s: InNeigh(99)=%v want empty", name, ns)
		}
	}
}

// TestConcurrentHubInsertUnique hammers a single hub vertex from many
// goroutine shards in one batch; uniqueness must survive the contention.
func TestConcurrentHubInsertUnique(t *testing.T) {
	const hub = 3
	for _, name := range ds.Names() {
		for trial := 0; trial < 5; trial++ {
			g := ds.MustNew(name, ds.Config{Directed: true, Threads: 8})
			rng := rand.New(rand.NewSource(int64(trial)))
			batch := make(graph.Batch, 4000)
			for i := range batch {
				batch[i] = graph.Edge{Src: hub, Dst: graph.NodeID(rng.Intn(97)), Weight: 1}
			}
			g.Update(batch)
			ns := g.OutNeigh(hub, nil)
			seen := map[graph.NodeID]bool{}
			for _, n := range ns {
				if seen[n.ID] {
					t.Fatalf("%s trial %d: duplicate neighbor %d", name, trial, n.ID)
				}
				seen[n.ID] = true
			}
			if g.OutDegree(hub) != len(seen) {
				t.Fatalf("%s trial %d: degree=%d distinct=%d", name, trial, g.OutDegree(hub), len(seen))
			}
		}
	}
}

func TestProfileCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	batches := randomBatches(rng, 3, 1000, 100)
	for _, name := range ds.Names() {
		g := ds.MustNew(name, ds.Config{Directed: true, Threads: 4})
		for _, b := range batches {
			g.Update(b)
		}
		var p ds.UpdateProfile
		g.(*ds.TwoCopy).TakeProfile(&p)
		if p.EdgesIngested != 3000*2 { // out + in copies
			t.Errorf("%s: EdgesIngested=%d want 6000", name, p.EdgesIngested)
		}
		if p.Inserted == 0 || p.Inserted > p.EdgesIngested {
			t.Errorf("%s: implausible Inserted=%d", name, p.Inserted)
		}
		// Directed graphs keep two copies, so total inserts are twice
		// the distinct out-edge count.
		if int(p.Inserted) != 2*g.NumEdges() {
			t.Errorf("%s: Inserted=%d vs 2*NumEdges=%d", name, p.Inserted, 2*g.NumEdges())
		}
		// A take zeroes what it hands over.
		p = ds.UpdateProfile{}
		g.(*ds.TwoCopy).TakeProfile(&p)
		if p.EdgesIngested != 0 || p.Inserted != 0 || p.ScanSteps != 0 {
			t.Errorf("%s: a second take handed over %+v", name, p)
		}
	}
}

// TestReadsAreUncounted: a structure's counts are its update work only.
// After a take, reading every out- and in-neighbourhood and full-building
// a compute view over the structure leave nothing for the next take, so a
// pipeline's view refresh and compute reads never land in the next
// batch's counts.
func TestReadsAreUncounted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	batches := append(randomBatches(rng, 2, 1000, 100), hubBatches(rng, 2, 1000, 100, 3)...)
	for _, name := range ds.Names() {
		g := ds.MustNew(name, ds.Config{Directed: true, Threads: 2, FlushThreshold: 4})
		for _, b := range batches {
			g.Update(b)
		}
		var p ds.UpdateProfile
		g.(*ds.TwoCopy).TakeProfile(&p)
		var buf []graph.Neighbor
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			buf = g.OutNeigh(v, buf[:0])
			buf = g.InNeigh(v, buf[:0])
		}
		view, ok := ds.NewComputeView(g, 2)
		if !ok {
			t.Fatalf("%s: no compute view", name)
		}
		view.Refresh(nil, nil)
		p = ds.UpdateProfile{}
		g.(*ds.TwoCopy).TakeProfile(&p)
		for _, load := range p.ChunkLoads {
			if load != 0 {
				t.Errorf("%s: reads charged chunk loads %v", name, p.ChunkLoads)
				break
			}
		}
		if p.ChunkLoads = nil; !reflect.DeepEqual(p, ds.UpdateProfile{}) {
			t.Errorf("%s: reads handed over %+v", name, p)
		}
	}
}
