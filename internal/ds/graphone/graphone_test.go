package graphone

import (
	"math/rand"
	"testing"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

func outStore(t *testing.T, g ds.Graph) *store {
	t.Helper()
	return g.(*ds.TwoCopy).OutStore().(*store)
}

func TestStageDefersSealApplies(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 2})
	st := outStore(t, g)
	st.stage(graph.Batch{{Src: 1, Dst: 2, Weight: 5}, {Src: 1, Dst: 3, Weight: 6}}, false)
	// Nothing visible until the seal.
	if g.NumEdges() != 0 {
		t.Fatalf("staged records leaked: NumEdges=%d", g.NumEdges())
	}
	st.Seal()
	if g.NumEdges() != 2 || g.OutDegree(1) != 2 {
		t.Fatalf("seal did not apply: edges=%d deg=%d", g.NumEdges(), g.OutDegree(1))
	}
}

func TestSealIdempotentWhenEmpty(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true})
	st := outStore(t, g)
	st.Seal() // nothing staged: must be a no-op
	g.Update(graph.Batch{{Src: 0, Dst: 1, Weight: 1}})
	st.Seal()
	st.Seal()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges=%d want 1", g.NumEdges())
	}
}

// TestPersistentHubIndex verifies a hub vertex is promoted to the
// persistent index and stays correct through further batches and
// deletions.
func TestPersistentHubIndex(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 1})
	st := outStore(t, g)
	var batch graph.Batch
	for i := 0; i < indexThreshold+20; i++ {
		batch = append(batch, graph.Edge{Src: 7, Dst: graph.NodeID(100 + i), Weight: 1})
	}
	g.Update(batch)
	// One more batch so the now-large vertex crosses the promotion check.
	g.Update(graph.Batch{{Src: 7, Dst: 5000, Weight: 1}})
	if st.index[7] == nil {
		t.Fatal("hub vertex not promoted to a persistent index")
	}
	want := indexThreshold + 21
	if g.OutDegree(7) != want {
		t.Fatalf("degree=%d want %d", g.OutDegree(7), want)
	}
	// Duplicates must still dedup through the persistent index.
	g.Update(graph.Batch{{Src: 7, Dst: 100, Weight: 9}})
	if g.OutDegree(7) != want {
		t.Fatalf("duplicate inflated degree to %d", g.OutDegree(7))
	}
	for _, nb := range g.OutNeigh(7, nil) {
		if nb.ID == 100 && nb.Weight != 9 {
			t.Fatalf("duplicate did not rewrite weight: %v", nb)
		}
	}
	// Deletions must keep the index coherent.
	if err := g.(ds.Deleter).Delete(graph.Batch{{Src: 7, Dst: 100}, {Src: 7, Dst: 5000}}); err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(7) != want-2 {
		t.Fatalf("degree after delete=%d want %d", g.OutDegree(7), want-2)
	}
	g.Update(graph.Batch{{Src: 7, Dst: 100, Weight: 2}})
	if g.OutDegree(7) != want-1 {
		t.Fatalf("reinsert after delete: degree=%d want %d", g.OutDegree(7), want-1)
	}
}

// TestGraphOneRandomVsOracle hammers the full per-vertex index paths.
func TestGraphOneRandomVsOracle(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 4})
	oracle := graph.NewOracle(true)
	rng := rand.New(rand.NewSource(17))
	for b := 0; b < 8; b++ {
		batch := make(graph.Batch, 1500)
		for i := range batch {
			src := graph.NodeID(rng.Intn(40)) // small space => hubs form
			dst := graph.NodeID(rng.Intn(400))
			batch[i] = graph.Edge{Src: src, Dst: dst, Weight: graph.Weight((uint32(src)^uint32(dst))%31 + 1)}
		}
		g.Update(batch)
		oracle.Update(batch)
	}
	if g.NumEdges() != oracle.NumEdges() {
		t.Fatalf("NumEdges=%d want %d", g.NumEdges(), oracle.NumEdges())
	}
	for v := 0; v < oracle.NumNodes(); v++ {
		id := graph.NodeID(v)
		if g.OutDegree(id) != oracle.OutDegree(id) {
			t.Fatalf("vertex %d degree %d want %d", v, g.OutDegree(id), oracle.OutDegree(id))
		}
	}
}

func TestChunksAccessor(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 3})
	if outStore(t, g).Chunks() != 3 {
		t.Fatal("chunk count should default to threads")
	}
}
