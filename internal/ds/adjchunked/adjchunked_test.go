package adjchunked

import (
	"testing"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

func TestChunkLoadsTrackImbalance(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 1, Chunks: 4})
	// All sources in chunk 2 (v mod 4 == 2).
	var batch graph.Batch
	for i := 0; i < 40; i++ {
		batch = append(batch, graph.Edge{Src: 2, Dst: graph.NodeID(i + 10), Weight: 1})
	}
	g.Update(batch)
	var p ds.UpdateProfile
	g.(*ds.TwoCopy).TakeProfile(&p)
	if len(p.ChunkLoads) != 4 {
		t.Fatalf("ChunkLoads len=%d want 4", len(p.ChunkLoads))
	}
	// Out copy funnels into chunk 2; the in copy spreads across dsts.
	if p.ChunkLoads[2] < 40 {
		t.Fatalf("chunk 2 load=%d want >= 40", p.ChunkLoads[2])
	}
	if p.Imbalance() <= 1 {
		t.Fatalf("imbalance=%v want > 1 for a hub workload", p.Imbalance())
	}
	st := g.(*ds.TwoCopy).OutStore().(*store)
	if st.Chunks() != 4 {
		t.Fatalf("Chunks=%d want 4", st.Chunks())
	}
}

func TestChunksDefaultToThreads(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 6})
	st := g.(*ds.TwoCopy).OutStore().(*store)
	if st.Chunks() != 6 {
		t.Fatalf("Chunks=%d want 6", st.Chunks())
	}
}

func TestLocklessUniqueIngestion(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 8, Chunks: 8})
	batch := make(graph.Batch, 2000)
	for i := range batch {
		batch[i] = graph.Edge{Src: graph.NodeID(i % 50), Dst: graph.NodeID(i % 70), Weight: 1}
	}
	g.Update(batch)
	g.Update(batch) // everything duplicate
	var p ds.UpdateProfile
	g.(*ds.TwoCopy).TakeProfile(&p)
	if p.EdgesIngested != 8000 {
		t.Fatalf("EdgesIngested=%d want 8000", p.EdgesIngested)
	}
	total := 0
	for v := 0; v < g.NumNodes(); v++ {
		total += g.OutDegree(graph.NodeID(v))
	}
	if total != g.NumEdges() {
		t.Fatalf("degree sum %d != NumEdges %d", total, g.NumEdges())
	}
	if p.LockConflicts != 0 {
		t.Fatalf("chunked structure reported %d lock conflicts", p.LockConflicts)
	}
}
