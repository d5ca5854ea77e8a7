package ds

import (
	"testing"

	"sagabench/internal/graph"
)

// fakeStore is a minimal OneDir for exercising TwoCopy in isolation.
type fakeStore struct {
	adj  []map[graph.NodeID]graph.Weight
	dels int
	prof UpdateProfile // EdgesIngested, and every record as chunk 0's load
}

func (f *fakeStore) EnsureNodes(n int) {
	for len(f.adj) < n {
		f.adj = append(f.adj, map[graph.NodeID]graph.Weight{})
	}
}

func (f *fakeStore) UpdateEdges(edges []graph.Edge) {
	for _, e := range edges {
		f.adj[e.Src][e.Dst] = e.Weight
	}
	f.prof.EdgesIngested += uint64(len(edges))
	if f.prof.ChunkLoads == nil {
		f.prof.ChunkLoads = make([]uint64, 1)
	}
	f.prof.ChunkLoads[0] += uint64(len(edges))
}

func (f *fakeStore) TakeProfile(into *UpdateProfile) { f.prof.MoveTo(into) }

func (f *fakeStore) Degree(v graph.NodeID) int {
	if int(v) >= len(f.adj) {
		return 0
	}
	return len(f.adj[v])
}

func (f *fakeStore) NumEdges() int {
	n := 0
	for _, m := range f.adj {
		n += len(m)
	}
	return n
}

func (f *fakeStore) NumNodes() int { return len(f.adj) }

func (f *fakeStore) FlatFill(v graph.NodeID, dst []graph.Neighbor) int {
	n := 0
	for id, w := range f.adj[v] {
		dst[n] = graph.Neighbor{ID: id, Weight: w}
		n++
	}
	return n
}

func (f *fakeStore) DeleteEdges(edges []graph.Edge) {
	for _, e := range edges {
		if int(e.Src) < len(f.adj) {
			delete(f.adj[e.Src], e.Dst)
			f.dels++
		}
	}
}

func TestTwoCopyDirectedKeepsTwoStores(t *testing.T) {
	var stores []*fakeStore
	tc := NewTwoCopy(true, func() OneDir {
		s := &fakeStore{}
		stores = append(stores, s)
		return s
	})
	if len(stores) != 2 {
		t.Fatalf("directed TwoCopy built %d stores want 2", len(stores))
	}
	tc.Update(graph.Batch{{Src: 1, Dst: 3, Weight: 7}})
	if tc.OutDegree(1) != 1 || tc.InDegree(3) != 1 {
		t.Fatal("directed degrees wrong")
	}
	if tc.OutDegree(3) != 0 || tc.InDegree(1) != 0 {
		t.Fatal("directed graph mirrored an edge")
	}
	out := tc.OutNeigh(1, nil)
	in := tc.InNeigh(3, nil)
	if len(out) != 1 || out[0].ID != 3 || len(in) != 1 || in[0].ID != 1 {
		t.Fatalf("adjacency out=%v in=%v", out, in)
	}
	if !tc.Directed() {
		t.Fatal("Directed() lied")
	}
}

func TestTwoCopyUndirectedSharesStore(t *testing.T) {
	var stores []*fakeStore
	tc := NewTwoCopy(false, func() OneDir {
		s := &fakeStore{}
		stores = append(stores, s)
		return s
	})
	if len(stores) != 1 {
		t.Fatalf("undirected TwoCopy built %d stores want 1", len(stores))
	}
	tc.Update(graph.Batch{{Src: 1, Dst: 3, Weight: 7}})
	if tc.OutDegree(3) != 1 || tc.InDegree(1) != 1 {
		t.Fatal("undirected edge not mirrored")
	}
	if tc.OutStore() != tc.InStore() {
		t.Fatal("undirected stores should alias")
	}
}

// TestTwoCopyDelete: a delete batch reaches both stores of a directed
// graph; out-of-range deletions are clamped and empty batches no-ops.
func TestTwoCopyDelete(t *testing.T) {
	var stores []*fakeStore
	tc := NewTwoCopy(true, func() OneDir {
		s := &fakeStore{}
		stores = append(stores, s)
		return s
	})
	tc.Update(graph.Batch{{Src: 0, Dst: 1, Weight: 1}})
	if err := tc.Delete(graph.Batch{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	for i, s := range stores {
		if s.NumEdges() != 0 {
			t.Fatalf("store %d keeps %d records after delete", i, s.NumEdges())
		}
	}
	if err := tc.Delete(graph.Batch{{Src: 99, Dst: 98}}); err != nil {
		t.Fatal(err)
	}
	if err := tc.Delete(nil); err != nil {
		t.Fatal(err)
	}
	for i, s := range stores {
		if s.dels != 1 {
			t.Errorf("store %d saw %d delete records, want 1", i, s.dels)
		}
	}
}

func TestTwoCopyQueriesOutOfRange(t *testing.T) {
	tc := NewTwoCopy(true, func() OneDir { return &fakeStore{} })
	tc.Update(graph.Batch{{Src: 0, Dst: 1, Weight: 1}})
	if tc.OutDegree(55) != 0 || tc.InDegree(55) != 0 {
		t.Fatal("out-of-range degree")
	}
	if len(tc.OutNeigh(55, nil)) != 0 || len(tc.InNeigh(55, nil)) != 0 {
		t.Fatal("out-of-range adjacency")
	}
}

// TestTwoCopyTakeProfile: a take merges both copies of a directed graph
// (chunk loads index-wise), takes the one store of an undirected graph
// once, and leaves nothing behind for the next take.
func TestTwoCopyTakeProfile(t *testing.T) {
	batch := graph.Batch{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 0, Weight: 1}}
	for _, tc := range []struct {
		directed bool
		want     uint64 // records offered across the stores
	}{{true, 6}, {false, 6}} {
		g := NewTwoCopy(tc.directed, func() OneDir { return &fakeStore{} })
		var p UpdateProfile
		g.TakeProfile(&p)
		if p.EdgesIngested != 0 || len(p.ChunkLoads) != 0 {
			t.Fatalf("directed=%v: an empty graph handed over %+v", tc.directed, p)
		}
		g.Update(batch)
		g.TakeProfile(&p)
		if p.EdgesIngested != tc.want || len(p.ChunkLoads) != 1 || p.ChunkLoads[0] != tc.want {
			t.Fatalf("directed=%v: took %+v, want %d records in one chunk", tc.directed, p, tc.want)
		}
		var again UpdateProfile
		g.TakeProfile(&again)
		if again.EdgesIngested != 0 || again.ChunkLoads[0] != 0 {
			t.Fatalf("directed=%v: a second take handed over %+v", tc.directed, again)
		}
	}
}

// TestTwoCopyDeleteSteadyStateDoesNotAllocate: a delete batch is clamped,
// and reversed for the second direction, in the scratch Update already
// owns — once it has grown to the batch, deleting allocates nothing on a
// directed or an undirected graph, and both directions still see every
// record.
func TestTwoCopyDeleteSteadyStateDoesNotAllocate(t *testing.T) {
	var batch graph.Batch
	for i := 0; i < 500; i++ {
		batch = append(batch, graph.Edge{Src: graph.NodeID(i % 50), Dst: graph.NodeID(i%49 + 1), Weight: 1})
	}
	batch = append(batch, graph.Edge{Src: 9000, Dst: 1, Weight: 1}) // past the vertex space: clamped out
	for _, directed := range []bool{true, false} {
		var stores []*fakeStore
		tc := NewTwoCopy(directed, func() OneDir {
			s := &fakeStore{}
			stores = append(stores, s)
			return s
		})
		tc.Update(batch[:500])
		if err := tc.Delete(batch); err != nil { // cold: grows the scratch
			t.Fatal(err)
		}
		for _, s := range stores {
			if s.NumEdges() != 0 {
				t.Fatalf("directed=%v: %d records survive the delete", directed, s.NumEdges())
			}
			s.dels = 0
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := tc.Delete(batch); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("directed=%v: steady-state Delete allocates %.1f times", directed, allocs)
		}
		for _, s := range stores {
			if s.dels != 21*1000/len(stores) {
				t.Errorf("directed=%v: a store saw %d delete records in 21 batches, want %d", directed, s.dels, 21*1000/len(stores))
			}
		}
	}
}
