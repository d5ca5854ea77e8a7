package compute_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// prGolden holds the FNV-64a of every post-batch PageRank vector of the
// stream below, recorded at the commit BEFORE the contribution-vector
// kernels (per-edge degree lookup and division). The rewrite takes the
// same rounded quotient rank/outdeg once per vertex instead of once per
// edge and sums in the same order, so at Threads=1 every bit must
// survive; a changed hash means the numerics moved, not a tolerance to
// widen. The view and the interface path hand the kernels the same runs
// in the same order, so they share one recorded hash per row.
//
// The inc rows were re-recorded once, for the ascending-order rounds: an
// INC round relaxes values in place (Gauss–Seidel), so walking the
// frontier in vertex order instead of discovery order moves the last bits
// of every rank. The fs rows are still the ones recorded before the
// contribution-vector kernels, and the fs rows are reproduced a third way
// too: through an in-only view (ds.ComputeView.MirrorInOnly), which sums
// the same in-runs against the same integer out-degrees.
var prGolden = map[string]uint64{
	"adjshared/directed/fs":    0x600064e72b76e7f5,
	"adjshared/directed/inc":   0x7a1fbb5ca01dc100,
	"adjshared/undirected/fs":  0x707f391ac173be2e,
	"adjshared/undirected/inc": 0x075e83ea30ffc4d1,
	"dah/directed/fs":          0x5e92ae9ee381f9cd,
	"dah/directed/inc":         0xf72f2ed1f93ae7df,
	"dah/undirected/fs":        0x26fb8660e6dcabd8,
	"dah/undirected/inc":       0xa772a2d418a26fc6,
	"hybrid/directed/fs":       0x600064e72b76e7f5,
	"hybrid/directed/inc":      0x7a1fbb5ca01dc100,
	"hybrid/undirected/fs":     0x707f391ac173be2e,
	"hybrid/undirected/inc":    0x075e83ea30ffc4d1,
}

// TestPRGoldenBitIdentity replays one fixed gen stream (inserts, a
// quarter of the previous batch deleted again, vertices appearing over
// time) through PageRank under both models, on the compute view and on
// the structure's interface (and FS on an in-only view), and compares the
// hash of all post-batch value vectors with the recorded one. Its count
// twin: every path of a row reports, batch for batch, the same
// Iterations, Processed and EdgesTraversed — the backings hand the
// kernels the same runs, so a path that counts its work differently (per
// range instead of per vertex, say) must still count the same work.
func TestPRGoldenBitIdentity(t *testing.T) {
	const seed, batchSize = 20260926, 500
	spec := gen.MustDataset("lj", gen.ProfileTiny)
	for _, dsName := range []string{"adjshared", "dah", "hybrid"} {
		for _, directed := range []bool{true, false} {
			spec.Directed = directed
			edges := spec.Generate(seed)
			counts := map[compute.Model][]prCounts{}
			for _, path := range []string{"interface", "view", "in-only-view"} {
				for _, model := range []compute.Model{compute.FS, compute.INC} {
					if path == "in-only-view" && (model != compute.FS || !directed) {
						continue // INC pushes along out-runs; undirected views have one store
					}
					dir := "undirected"
					if directed {
						dir = "directed"
					}
					key := fmt.Sprintf("%s/%s/%s", dsName, dir, model)
					t.Run(key+"/"+path, func(t *testing.T) {
						got, perBatch := prStreamHash(t, dsName, directed, path, model, edges, batchSize)
						if want := prGolden[key]; got != want {
							t.Fatalf("PageRank values hash %#x, recorded %#x: the numerics changed", got, want)
						}
						ref, ok := counts[model]
						if !ok {
							counts[model] = perBatch
							return
						}
						for b := range ref {
							if perBatch[b] != ref[b] {
								t.Fatalf("batch %d: %d iterations / %d processed / %d edges, the interface path %d / %d / %d",
									b, perBatch[b].Iterations, perBatch[b].Processed, perBatch[b].EdgesTraversed,
									ref[b].Iterations, ref[b].Processed, ref[b].EdgesTraversed)
							}
						}
					})
				}
			}
		}
	}
}

// prCounts is one batch's work counts, the count twin's unit.
type prCounts struct {
	Iterations                int
	Processed, EdgesTraversed uint64
}

// prStreamHash returns the hash of the stream's post-batch value vectors
// and each batch's work counts.
func prStreamHash(t *testing.T, dsName string, directed bool, path string, model compute.Model, edges []graph.Edge, batchSize int) (uint64, []prCounts) {
	t.Helper()
	g := ds.MustNew(dsName, ds.Config{Directed: directed, Threads: 1})
	var cg ds.Graph = g
	var view *ds.ComputeView
	if path != "interface" {
		var ok bool
		if view, ok = ds.NewComputeView(g, 1); !ok {
			t.Fatalf("%s has no compute view", dsName)
		}
		if path == "in-only-view" {
			view.MirrorInOnly()
		}
		cg = view
	}
	e := compute.MustNewEngine("pr", model, compute.Options{Threads: 1})
	h := fnv.New64a()
	var prev, dels graph.Batch
	var word [8]byte
	var perBatch []prCounts
	for lo := 0; lo < len(edges); lo += batchSize {
		hi := lo + batchSize
		if hi > len(edges) {
			hi = len(edges)
		}
		adds := graph.Batch(edges[lo:hi])
		dels = dels[:0]
		for i := 0; i < len(prev); i += 4 {
			dels = append(dels, prev[i])
		}
		g.Update(adds)
		if len(dels) > 0 {
			if err := g.(ds.Deleter).Delete(dels); err != nil {
				t.Fatal(err)
			}
		}
		if view != nil {
			view.Refresh(adds, dels)
		}
		e.PerformAlg(cg, affectedOf(append(append(graph.Batch{}, adds...), dels...)))
		st := e.Stats()
		perBatch = append(perBatch, prCounts{st.Iterations, st.Processed, st.EdgesTraversed})
		for _, f := range e.Values() {
			bits := math.Float64bits(f)
			for i := range word {
				word[i] = byte(bits >> (8 * i))
			}
			h.Write(word[:])
		}
		prev = adds
	}
	return h.Sum64(), perBatch
}
