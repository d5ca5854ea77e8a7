package compute_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// TestIncOrderIndependent: an INC round walks its frontier in vertex
// order, so at one thread the values after a batch depend on which
// vertices the batch affected and invalidated, not on the order the batch
// listed them in. Two engines follow one graph through a crosscheck stream
// with deletes; the second is handed every affected list and every
// deletion notice shuffled. All six algorithms, on the view and on the
// structure's interface, must agree bit for bit after every batch — for
// PageRank at the default epsilon, where the discovery-order rounds did
// not.
func TestIncOrderIndependent(t *testing.T) {
	stream := crosscheck.NewStream(crosscheck.StreamConfig{
		Seed: 77, Batches: 24, BatchSize: 300, NumNodes: 256, Directed: true, Deletes: true})
	for _, alg := range compute.AlgNames() {
		for _, useView := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/view=%v", alg, useView), func(t *testing.T) {
				g := ds.MustNew("hybrid", ds.Config{Directed: true, Threads: 1})
				var cg ds.Graph = g
				var view *ds.ComputeView
				if useView {
					view, _ = ds.NewComputeView(g, 1)
					cg = view
				}
				rng := rand.New(rand.NewSource(1))
				opts := compute.Options{Threads: 1}
				a, b := compute.MustNewEngine(alg, compute.INC, opts), compute.MustNewEngine(alg, compute.INC, opts)
				for bi, st := range stream {
					var invalidating graph.Batch
					if a.(compute.WeightChangeAware).WantsWeightChanges() {
						invalidating = ds.Overwritten(g, st.Adds)
					}
					invalidating = append(invalidating, st.Dels...)
					g.Update(st.Adds)
					if err := g.(ds.Deleter).Delete(st.Dels); err != nil {
						t.Fatal(err)
					}
					if view != nil {
						view.Refresh(st.Adds, st.Dels)
					}
					aff := affectedOf(append(append(graph.Batch{}, st.Adds...), st.Dels...))
					shuffledAff := append([]graph.NodeID(nil), aff...)
					rng.Shuffle(len(shuffledAff), func(i, j int) {
						shuffledAff[i], shuffledAff[j] = shuffledAff[j], shuffledAff[i]
					})
					shuffledInv := append(graph.Batch(nil), invalidating...)
					rng.Shuffle(len(shuffledInv), func(i, j int) {
						shuffledInv[i], shuffledInv[j] = shuffledInv[j], shuffledInv[i]
					})
					if len(invalidating) > 0 {
						a.(compute.DeletionAware).NotifyDeletions(g, invalidating)
						b.(compute.DeletionAware).NotifyDeletions(g, shuffledInv)
					}
					a.PerformAlg(cg, aff)
					b.PerformAlg(cg, shuffledAff)
					av, bv := a.Values(), b.Values()
					for v := range av {
						if math.Float64bits(av[v]) != math.Float64bits(bv[v]) {
							t.Fatalf("batch %d: vertex %d is %v in batch order and %v shuffled", bi, v, av[v], bv[v])
						}
					}
					if a.Stats().Processed != b.Stats().Processed || a.Stats().Iterations != b.Stats().Iterations {
						t.Fatalf("batch %d: stats differ: %+v vs %+v", bi, a.Stats(), b.Stats())
					}
				}
			})
		}
	}
}
