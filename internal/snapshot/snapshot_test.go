package snapshot

import (
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/graph"
)

// csrOf freezes the topology a directed stream reaches.
func csrOf(edges ...graph.Edge) *graph.CSR {
	o := graph.NewOracle(true)
	o.Update(edges)
	return graph.BuildCSR(o.NumNodes(), o.Edges())
}

func TestFrozenRunsAlgorithms(t *testing.T) {
	e01 := graph.Edge{Src: 0, Dst: 1, Weight: 2}
	e12 := graph.Edge{Src: 1, Dst: 2, Weight: 3}
	e23 := graph.Edge{Src: 2, Dst: 3, Weight: 5}

	// BFS on the first snapshot: vertex 3 does not exist yet.
	e := compute.MustNewEngine("bfs", compute.FS, compute.Options{})
	e.PerformAlg(Freeze(csrOf(e01, e12)), nil)
	v0 := e.Values()
	if len(v0) != 3 || v0[0] != 0 || v0[1] != 1 || v0[2] != 2 {
		t.Fatalf("snapshot-0 BFS: %v", v0)
	}

	// SSSP on the final snapshot sees the full chain with weights.
	sp := compute.MustNewEngine("sssp", compute.FS, compute.Options{})
	sp.PerformAlg(Freeze(csrOf(e01, e12, e23)), nil)
	v1 := sp.Values()
	want := []float64{0, 2, 5, 10}
	for v := range want {
		if v1[v] != want[v] {
			t.Fatalf("snapshot-1 SSSP[%d]=%v want %v", v, v1[v], want[v])
		}
	}
}

func TestFrozenIsImmutable(t *testing.T) {
	f := Freeze(csrOf(graph.Edge{Src: 0, Dst: 1, Weight: 1}))
	defer func() {
		if recover() == nil {
			t.Fatal("Update on a frozen snapshot should panic")
		}
	}()
	f.Update(graph.Batch{{Src: 1, Dst: 2, Weight: 1}})
}

func TestFrozenBounds(t *testing.T) {
	f := Freeze(csrOf(graph.Edge{Src: 0, Dst: 1, Weight: 1}))
	if f.OutDegree(99) != 0 || f.InDegree(99) != 0 {
		t.Fatal("out-of-range degree")
	}
	if len(f.OutNeigh(99, nil)) != 0 || len(f.InNeigh(99, nil)) != 0 {
		t.Fatal("out-of-range adjacency")
	}
	if f.NumNodes() != 2 || f.NumEdges() != 1 || !f.Directed() {
		t.Fatalf("identity: n=%d e=%d", f.NumNodes(), f.NumEdges())
	}
}
