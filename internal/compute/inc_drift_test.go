package compute_test

import (
	"math"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// incPRDriftBound is the drift of INC PageRank at its default triggering
// threshold over the streams of TestIncPRDriftGuard, measured at the
// commit before the ascending-order rounds (discovery-order frontiers):
// the relative L1 distance Σ|inc-ref| / Σ|ref| to a tightly converged
// compute.Reference, averaged over every batch of the three streams. Both
// structures and both backings gave the same figure. A round order may
// move INC values in their last bits; it may not make the engine absorb
// more error than it did. (The streams end at an average degree of 17; at
// an average degree under 5 the ascending order absorbs more than the
// discovery order did — EXPERIMENTS.md, PR 18, has the sweep.)
const incPRDriftBound = 0.054220

// TestIncPRDriftGuard streams 3 × 48 crosscheck batches with deletes
// through INC PageRank at the default epsilon (0.5/|V| — the setting every
// pipeline runs, where sub-threshold changes are absorbed by design) and
// bounds how far the values sit from the reference.
func TestIncPRDriftGuard(t *testing.T) {
	ref := compute.Options{PRTolerance: 1e-13, PRMaxIters: 500}
	for _, cfg := range []struct {
		ds      string
		useView bool
	}{{"hybrid", true}, {"hybrid", false}, {"adjshared", true}, {"adjshared", false}} {
		sum, batches, dels := 0.0, 0, 0
		for seed := int64(21); seed <= 23; seed++ {
			stream := crosscheck.NewStream(crosscheck.StreamConfig{
				Seed: seed, Batches: 48, BatchSize: 400, NumNodes: 400, Directed: true, Deletes: true})
			g := ds.MustNew(cfg.ds, ds.Config{Directed: true, Threads: 1})
			var cg ds.Graph = g
			var view *ds.ComputeView
			if cfg.useView {
				view, _ = ds.NewComputeView(g, 1)
				cg = view
			}
			e := compute.MustNewEngine("pr", compute.INC, compute.Options{Threads: 1})
			oracle := graph.NewOracle(true)
			for _, st := range stream {
				g.Update(st.Adds)
				if err := g.(ds.Deleter).Delete(st.Dels); err != nil {
					t.Fatal(err)
				}
				oracle.Update(st.Adds)
				oracle.Delete(st.Dels)
				dels += len(st.Dels)
				if view != nil {
					view.Refresh(st.Adds, st.Dels)
				}
				e.PerformAlg(cg, affectedOf(append(append(graph.Batch{}, st.Adds...), st.Dels...)))
				if g.NumNodes() == 0 {
					continue // a stream may open with empty batches
				}
				sum += relativeL1(e.Values(), compute.MustReference("pr", oracle, ref))
				batches++
			}
		}
		if dels == 0 || batches < 120 {
			t.Fatalf("streams too tame: %d deletes, %d non-empty batches", dels, batches)
		}
		drift := sum / float64(batches)
		t.Logf("%s view=%v: mean relative L1 %.6f over %d batches", cfg.ds, cfg.useView, drift, batches)
		if !(drift <= incPRDriftBound) {
			t.Errorf("%s view=%v: INC PageRank sits %.6f of the reference's mass away from it, bound %.6f", cfg.ds, cfg.useView, drift, incPRDriftBound)
		}
	}
}

// relativeL1 is Σ|got-want| / Σ|want| (NaN when the lengths differ).
func relativeL1(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.NaN()
	}
	dist, mass := 0.0, 0.0
	for i := range want {
		dist += math.Abs(got[i] - want[i])
		mass += math.Abs(want[i])
	}
	return dist / mass
}
