package all_test

import (
	"math/rand"
	"testing"

	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// TestDeleteMatchesOracle interleaves insert and delete batches on every
// structure and checks the surviving edge sets against the oracle.
func TestDeleteMatchesOracle(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, name := range ds.Names() {
			g := ds.MustNew(name, ds.Config{Directed: directed, Threads: 4})
			oracle := graph.NewOracle(directed)
			rng := rand.New(rand.NewSource(9))

			var live graph.Batch // edges known to be present (may repeat)
			for round := 0; round < 6; round++ {
				adds := make(graph.Batch, 800)
				for i := range adds {
					src := graph.NodeID(rng.Intn(150))
					dst := graph.NodeID(rng.Intn(150))
					adds[i] = graph.Edge{Src: src, Dst: dst, Weight: pairWeight(src, dst)}
				}
				g.Update(adds)
				oracle.Update(adds)
				live = append(live, adds...)

				// Delete a mix of present and absent edges.
				dels := make(graph.Batch, 200)
				for i := range dels {
					if rng.Intn(3) == 0 || len(live) == 0 {
						dels[i] = graph.Edge{
							Src: graph.NodeID(rng.Intn(150)),
							Dst: graph.NodeID(150 + rng.Intn(50)), // never inserted
						}
					} else {
						dels[i] = live[rng.Intn(len(live))]
					}
				}
				if err := g.(ds.Deleter).Delete(dels); err != nil {
					t.Fatalf("%s: delete: %v", name, err)
				}
				oracle.Delete(dels)
			}
			checkAgainstOracle(t, name+" after deletes", g, oracle)
		}
	}
}

// TestDeleteAllEdges removes everything that was inserted; the structures
// must return to an empty edge set with zeroed degrees.
func TestDeleteAllEdges(t *testing.T) {
	for _, name := range ds.Names() {
		g := ds.MustNew(name, ds.Config{Directed: true, Threads: 2})
		var batch graph.Batch
		for i := 0; i < 50; i++ {
			for j := 0; j < 20; j++ {
				batch = append(batch, graph.Edge{
					Src: graph.NodeID(i), Dst: graph.NodeID(100 + j), Weight: 1,
				})
			}
		}
		g.Update(batch)
		if err := g.(ds.Deleter).Delete(batch); err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != 0 {
			t.Errorf("%s: NumEdges=%d after deleting everything", name, g.NumEdges())
		}
		for v := 0; v < g.NumNodes(); v++ {
			if d := g.OutDegree(graph.NodeID(v)); d != 0 {
				t.Fatalf("%s: vertex %d retains out-degree %d", name, v, d)
			}
			if ns := g.OutNeigh(graph.NodeID(v), nil); len(ns) != 0 {
				t.Fatalf("%s: vertex %d retains neighbors %v", name, v, ns)
			}
		}
	}
}

// TestDeleteThenReinsert checks deletion does not corrupt subsequent
// ingestion (the Stinger chain-trim and DAH backward-shift paths).
func TestDeleteThenReinsert(t *testing.T) {
	for _, name := range ds.Names() {
		g := ds.MustNew(name, ds.Config{Directed: true, Threads: 2, BlockSize: 4, FlushThreshold: 8})
		var batch graph.Batch
		for i := 0; i < 30; i++ {
			batch = append(batch, graph.Edge{Src: 5, Dst: graph.NodeID(i), Weight: 1})
		}
		g.Update(batch)
		if err := g.(ds.Deleter).Delete(batch[:15]); err != nil {
			t.Fatal(err)
		}
		if d := g.OutDegree(5); d != 15 {
			t.Fatalf("%s: degree=%d want 15", name, d)
		}
		g.Update(batch[:15]) // reinsert
		if d := g.OutDegree(5); d != 30 {
			t.Fatalf("%s: degree=%d want 30 after reinsert", name, d)
		}
		seen := map[graph.NodeID]bool{}
		for _, nb := range g.OutNeigh(5, nil) {
			if seen[nb.ID] {
				t.Fatalf("%s: duplicate %d after delete+reinsert", name, nb.ID)
			}
			seen[nb.ID] = true
		}
	}
}

// TestDeleteOutOfRange must not panic or mutate anything.
func TestDeleteOutOfRange(t *testing.T) {
	for _, name := range ds.Names() {
		g := ds.MustNew(name, ds.Config{Directed: true, Threads: 1})
		g.Update(graph.Batch{{Src: 0, Dst: 1, Weight: 1}})
		if err := g.(ds.Deleter).Delete(graph.Batch{{Src: 500, Dst: 600}}); err != nil {
			t.Fatal(err)
		}
		if err := g.(ds.Deleter).Delete(nil); err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != 1 {
			t.Errorf("%s: NumEdges=%d want 1", name, g.NumEdges())
		}
	}
}
