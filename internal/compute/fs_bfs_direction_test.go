package compute_test

import (
	"fmt"
	"math"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// The direction rule's divisors (Beamer et al.'s α and β): a top-down
// phase goes bottom-up once the frontier's out-edges exceed a 1/α share of
// the out-edges not yet explored, and a bottom-up phase stays bottom-up
// until the frontier both shrinks and holds at most 1/β of the vertices.
const (
	ruleAlpha = compute.BFSAlpha
	ruleBeta  = compute.BFSBeta
)

// bfsLevel is one level of an FS BFS as the test sees it: the frontier
// the level expanded (every vertex at that depth), the frontier's
// out-degree sum, and the direction its range records name.
type bfsLevel struct {
	size, outEdges int
	pass           string
}

// TestBFSDirectionRule streams a fixed RMAT graph shaped like
// update-churn's (paper (a,b,c), about 7.5 out-edges a vertex, a sliding
// window of deletes) at 2^14 vertices, and after every batch checks that
// each FS BFS level ran in the direction the rule picks:
//   - while top-down, a frontier of more than 64 vertices whose out-edges
//     exceed unexplored/α goes bottom-up; any other runs top-down, and its
//     out-edges leave the unexplored count (which starts at NumEdges);
//   - while bottom-up, a frontier that grew, or holds more than n/β
//     vertices, stays bottom-up; otherwise the phase ends and the level
//     runs top-down, no degree read;
//   - the widest level runs bottom-up.
//
// Both backings, one and four threads; the directions come from the
// range records' pass names.
func TestBFSDirectionRule(t *testing.T) {
	const (
		n      = 1 << 14
		batch  = 25_000
		window = 5
	)
	spec := gen.Spec{Kind: gen.KindRMAT, Directed: true, NumNodes: n, NumEdges: 8 * batch, A: .55, B: .15, C: .15, D: .15}
	edges := spec.Generate(7)
	var batches []graph.Batch
	for i := 0; i < len(edges); i += batch {
		batches = append(batches, edges[i:i+batch])
	}
	for _, useView := range []bool{false, true} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("view=%v/threads=%d", useView, threads), func(t *testing.T) {
				g := ds.MustNew("hybrid", ds.Config{Directed: true, Threads: 1})
				var cg ds.Graph = g
				var view *ds.ComputeView
				if useView {
					view, _ = ds.NewComputeView(g, 1)
					cg = view
				}
				e := compute.MustNewEngine("bfs", compute.FS, compute.Options{Threads: threads, WorkerTiming: true})
				var seen ruleCases
				for i, adds := range batches {
					var dels graph.Batch
					if i >= window {
						dels = batches[i-window]
					}
					g.Update(adds)
					if err := g.(ds.Deleter).Delete(dels); err != nil {
						t.Fatal(err)
					}
					if view != nil {
						view.Refresh(adds, dels)
					}
					if i < window-1 {
						continue
					}
					e.PerformAlg(cg, nil)
					levels := bfsLevels(t, cg, e)
					seen.add(checkDirections(t, fmt.Sprintf("batch %d", i+1), levels, cg.NumNodes(), cg.NumEdges()))
				}
				if seen.topDownByEdges == 0 || seen.bottomUpByEdges == 0 || seen.stayedShrinking == 0 || seen.ended == 0 {
					t.Errorf("the stream does not exercise every arm of the rule: %+v", seen)
				}
			})
		}
	}
}

// ruleCases counts the levels that took each arm of the rule.
type ruleCases struct {
	topDownByEdges  int // more than 64 vertices, out-edges at most unexplored/α
	bottomUpByEdges int // out-edges past unexplored/α
	stayedShrinking int // bottom-up, shrinking but above n/β
	ended           int // a bottom-up phase ended
}

func (c *ruleCases) add(d ruleCases) {
	c.topDownByEdges += d.topDownByEdges
	c.bottomUpByEdges += d.bottomUpByEdges
	c.stayedShrinking += d.stayedShrinking
	c.ended += d.ended
}

// bfsLevels rebuilds the levels of the last FS BFS from its depths and
// its range records.
func bfsLevels(t *testing.T, g ds.Graph, e compute.Engine) []bfsLevel {
	t.Helper()
	var levels []bfsLevel
	for v, d := range e.Values() {
		if math.IsInf(d, 1) {
			continue
		}
		for int(d) >= len(levels) {
			levels = append(levels, bfsLevel{})
		}
		levels[int(d)].size++
		levels[int(d)].outEdges += g.OutDegree(graph.NodeID(v))
	}
	st := e.Stats()
	if st.Iterations != len(levels) {
		t.Fatalf("%d levels ran, the depths have %d", st.Iterations, len(levels))
	}
	for _, r := range st.Ranges {
		l := &levels[r.Step-1]
		if l.pass != "" && l.pass != r.Pass {
			t.Fatalf("level %d ran both %s and %s", r.Step-1, l.pass, r.Pass)
		}
		l.pass = r.Pass
	}
	return levels
}

// checkDirections holds every level to the rule and reports which arms
// the levels took.
func checkDirections(t *testing.T, at string, levels []bfsLevel, n, numEdges int) ruleCases {
	t.Helper()
	const topDown, bottomUp = "fs.bfs.topdown", "fs.bfs.bottomup"
	var c ruleCases
	unexplored, up, widest := numEdges, false, 0
	for d, l := range levels {
		if l.size > levels[widest].size {
			widest = d
		}
		want, u := topDown, unexplored
		switch {
		case up && (l.size >= levels[d-1].size || l.size > n/ruleBeta):
			want = bottomUp
			if l.size < levels[d-1].size {
				c.stayedShrinking++
			}
		case up:
			up = false
			c.ended++
		case l.size > 64 && l.outEdges > unexplored/ruleAlpha:
			want, up = bottomUp, true
			c.bottomUpByEdges++
		default:
			if l.size > 64 {
				c.topDownByEdges++
			}
			unexplored -= l.outEdges
		}
		if l.pass != want {
			t.Errorf("%s, depth %d (frontier %d of %d vertices, %d out-edges, %d unexplored): ran %s, the rule says %s",
				at, d, l.size, n, l.outEdges, u, l.pass, want)
		}
	}
	if levels[widest].pass != bottomUp {
		t.Errorf("%s: the widest level, depth %d (%d vertices), ran %s", at, widest, levels[widest].size, levels[widest].pass)
	}
	return c
}

// TestNumEdgesIsOutDegreeSum: the rule's unexplored count starts at
// NumEdges, so NumEdges must be the number of records the out-degree reads
// sum over — on every structure, directed and undirected (where each input
// edge is stored both ways), through deletes, and on the compute view.
func TestNumEdgesIsOutDegreeSum(t *testing.T) {
	for _, directed := range []bool{true, false} {
		stream := crosscheck.NewStream(crosscheck.StreamConfig{
			Seed: 5, Batches: 6, BatchSize: 800, NumNodes: 600, Directed: directed, Deletes: true})
		for _, name := range ds.Names() {
			t.Run(fmt.Sprintf("%s/directed=%v", name, directed), func(t *testing.T) {
				g := ds.MustNew(name, ds.Config{Directed: directed, Threads: 1})
				view, hasView := ds.NewComputeView(g, 1)
				for i, st := range stream {
					g.Update(st.Adds)
					if err := g.(ds.Deleter).Delete(st.Dels); err != nil {
						t.Fatal(err)
					}
					backings := []ds.Graph{g}
					if hasView {
						view.Refresh(st.Adds, st.Dels)
						backings = append(backings, view)
					}
					for _, b := range backings {
						sum := 0
						for v := 0; v < b.NumNodes(); v++ {
							sum += b.OutDegree(graph.NodeID(v))
						}
						if sum != b.NumEdges() {
							t.Fatalf("batch %d, %T: out-degrees sum to %d, NumEdges is %d", i+1, b, sum, b.NumEdges())
						}
					}
				}
			})
		}
	}
}
