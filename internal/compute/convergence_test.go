package compute_test

import (
	"math/rand"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// mixedStep is one window of a convergence stream.
type mixedStep struct {
	adds graph.Batch
	dels graph.Batch
}

// mixedStream builds a deterministic stream that exercises every INC
// repair path: fresh inserts, re-inserts that overwrite weights (salted by
// round), deletions of live edges (carrying their current weight, which
// the trim's tightness test requires), and no-op deletions of absent
// edges.
func mixedStream(seed int64, rounds, batchSize, numNodes int) []mixedStep {
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ src, dst graph.NodeID }
	cur := map[pair]graph.Weight{}
	var livePairs []pair
	// Symmetric in (src, dst): on an undirected graph (a,b) and (b,a) are
	// one edge, and two weights for it in one batch would leave the stored
	// one to the ingest threads' scheduling.
	weight := func(p pair, salt int) graph.Weight {
		a, b := uint32(p.src), uint32(p.dst)
		if a > b {
			a, b = b, a
		}
		return graph.Weight((a*2654435761+b*40503+uint32(salt)*97)%29) + 1
	}
	steps := make([]mixedStep, rounds)
	for r := range steps {
		adds := make(graph.Batch, batchSize)
		for i := range adds {
			p := pair{graph.NodeID(rng.Intn(numNodes)), graph.NodeID(rng.Intn(numNodes))}
			w := weight(p, r)
			if _, ok := cur[p]; !ok {
				livePairs = append(livePairs, p)
			}
			cur[p] = w
			adds[i] = graph.Edge{Src: p.src, Dst: p.dst, Weight: w}
		}
		var dels graph.Batch
		if r%2 == 1 {
			for i := 0; i < batchSize/4 && len(livePairs) > 0; i++ {
				j := rng.Intn(len(livePairs))
				p := livePairs[j]
				if w, ok := cur[p]; ok {
					dels = append(dels, graph.Edge{Src: p.src, Dst: p.dst, Weight: w})
					delete(cur, p)
				}
				livePairs[j] = livePairs[len(livePairs)-1]
				livePairs = livePairs[:len(livePairs)-1]
			}
			// And a deletion of an edge that was never inserted.
			dels = append(dels, graph.Edge{Src: graph.NodeID(numNodes), Dst: graph.NodeID(numNodes + 1), Weight: 1})
		}
		steps[r] = mixedStep{adds: adds, dels: dels}
	}
	return steps
}

// TestIncConvergesToFS streams mixed batches through an INC engine —
// following the pipeline's notification protocol (weight overwrites and
// deletions reported together for KickStarter-style invalidation) — and
// checks, for all six algorithms, that the incremental values on the final
// graph equal a fresh FS run over the same final topology. This is the
// paper's correctness contract for processing amortization plus selective
// triggering: incrementality must never change the answer, only the work.
func TestIncConvergesToFS(t *testing.T) {
	opts := compute.Options{Source: 0, Threads: 4, PRTolerance: 1e-12, PRMaxIters: 200, Epsilon: 1e-12}
	for _, directed := range []bool{true, false} {
		steps := mixedStream(41, 8, 300, 80)
		for _, alg := range compute.AlgNames() {
			g := ds.MustNew("adjshared", ds.Config{Directed: directed, Threads: 4})
			inc := compute.MustNewEngine(alg, compute.INC, opts)

			for _, st := range steps {
				var olds graph.Batch
				if wca, ok := inc.(compute.WeightChangeAware); ok && wca.WantsWeightChanges() {
					olds = ds.Overwritten(g, st.adds)
				}
				g.Update(st.adds)
				if len(st.dels) > 0 {
					if err := g.(ds.Deleter).Delete(st.dels); err != nil {
						t.Fatalf("%s: delete: %v", alg, err)
					}
				}
				if invalidating := append(olds, st.dels...); len(invalidating) > 0 {
					if da, ok := inc.(compute.DeletionAware); ok {
						da.NotifyDeletions(g, invalidating)
					}
				}
				aff := affectedOf(append(append(graph.Batch{}, st.adds...), st.dels...))
				inc.PerformAlg(g, aff)
			}

			// Fresh FS run on the same final topology (the full stream
			// replayed without incremental history; replaying rather than
			// re-inserting ExportEdges keeps NumNodes identical even when
			// the highest-ID vertex ended up isolated).
			g2 := ds.MustNew("adjshared", ds.Config{Directed: directed, Threads: 4})
			for _, st := range steps {
				g2.Update(st.adds)
				if len(st.dels) > 0 {
					if err := g2.(ds.Deleter).Delete(st.dels); err != nil {
						t.Fatalf("%s: replay delete: %v", alg, err)
					}
				}
			}
			fs := compute.MustNewEngine(alg, compute.FS, opts)
			fs.PerformAlg(g2, nil)

			label := alg + "/directed=" + boolStr(directed)
			valsEqual(t, label, inc.Values(), fs.Values(), compute.Tolerance(alg))
		}
	}
}

// TestIncTrimRepairsDeletionCascade aims a stream straight at the trim
// path: build a long chain from the source, then delete an edge near the
// source so almost every downstream value depended on it. The monotone INC
// engines must invalidate the whole dependent cone and rebuild it (here:
// to unreachable), matching FS on the post-deletion graph.
func TestIncTrimRepairsDeletionCascade(t *testing.T) {
	const chainLen = 40
	opts := compute.Options{Source: 0, Threads: 2, Epsilon: 1e-12}
	var chain graph.Batch
	for i := 0; i < chainLen; i++ {
		chain = append(chain, graph.Edge{Src: graph.NodeID(i), Dst: graph.NodeID(i + 1), Weight: graph.Weight(i%7 + 1)})
	}
	// A side branch that survives the cut.
	chain = append(chain, graph.Edge{Src: 0, Dst: 50, Weight: 9})

	for _, alg := range []string{"bfs", "cc", "mc", "sssp", "sswp"} {
		g := ds.MustNew("adjshared", ds.Config{Directed: true, Threads: 2})
		inc := compute.MustNewEngine(alg, compute.INC, opts)
		g.Update(chain)
		inc.PerformAlg(g, affectedOf(chain))

		cut := graph.Batch{{Src: 2, Dst: 3, Weight: 3}}
		if err := g.(ds.Deleter).Delete(cut); err != nil {
			t.Fatal(err)
		}
		inc.(compute.DeletionAware).NotifyDeletions(g, cut)
		inc.PerformAlg(g, affectedOf(cut))

		g2 := ds.MustNew("adjshared", ds.Config{Directed: true, Threads: 2})
		g2.Update(ds.ExportEdges(g))
		fs := compute.MustNewEngine(alg, compute.FS, opts)
		fs.PerformAlg(g2, nil)

		valsEqual(t, alg+" after cascade cut", inc.Values(), fs.Values(), compute.Tolerance(alg))
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
