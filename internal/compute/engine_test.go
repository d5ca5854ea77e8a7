package compute_test

import (
	"math"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

func line(t *testing.T, n int) ds.Graph {
	t.Helper()
	g := ds.MustNew("adjshared", ds.Config{Directed: true, Threads: 1})
	var b graph.Batch
	for i := 0; i < n-1; i++ {
		b = append(b, graph.Edge{Src: graph.NodeID(i), Dst: graph.NodeID(i + 1), Weight: graph.Weight(i + 1)})
	}
	g.Update(b)
	return g
}

func affected(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func TestBFSLineGraph(t *testing.T) {
	g := line(t, 6)
	for _, model := range []compute.Model{compute.FS, compute.INC} {
		e := compute.MustNewEngine("bfs", model, compute.Options{})
		e.PerformAlg(g, affected(6))
		for v, d := range e.Values() {
			if d != float64(v) {
				t.Fatalf("%s: depth[%d]=%v want %d", model, v, d, v)
			}
		}
		if s := e.Stats(); s.Processed == 0 || s.EdgesTraversed == 0 || s.Iterations == 0 {
			t.Fatalf("%s: empty stats %+v", model, s)
		}
	}
}

func TestSSSPLineGraphWeights(t *testing.T) {
	g := line(t, 5) // weights 1,2,3,4 => dist = prefix sums
	want := []float64{0, 1, 3, 6, 10}
	for _, model := range []compute.Model{compute.FS, compute.INC} {
		e := compute.MustNewEngine("sssp", model, compute.Options{})
		e.PerformAlg(g, affected(5))
		for v, d := range e.Values() {
			if d != want[v] {
				t.Fatalf("%s: dist[%d]=%v want %v", model, v, d, want[v])
			}
		}
	}
}

func TestSSWPBottleneck(t *testing.T) {
	// 0 -10-> 1 -3-> 2 -8-> 3 : widest path to 3 bottlenecks at 3.
	g := ds.MustNew("adjshared", ds.Config{Directed: true})
	g.Update(graph.Batch{
		{Src: 0, Dst: 1, Weight: 10},
		{Src: 1, Dst: 2, Weight: 3},
		{Src: 2, Dst: 3, Weight: 8},
	})
	for _, model := range []compute.Model{compute.FS, compute.INC} {
		e := compute.MustNewEngine("sswp", model, compute.Options{})
		e.PerformAlg(g, affected(4))
		vals := e.Values()
		want := []float64{math.Inf(1), 10, 3, 3}
		for v := range want {
			if vals[v] != want[v] {
				t.Fatalf("%s: width[%d]=%v want %v", model, v, vals[v], want[v])
			}
		}
	}
}

func TestMCPropagatesMaxID(t *testing.T) {
	// 9 -> 0 -> 1: max value 9 flows downstream.
	g := ds.MustNew("adjshared", ds.Config{Directed: true})
	g.Update(graph.Batch{
		{Src: 9, Dst: 0, Weight: 1},
		{Src: 0, Dst: 1, Weight: 1},
	})
	for _, model := range []compute.Model{compute.FS, compute.INC} {
		e := compute.MustNewEngine("mc", model, compute.Options{})
		e.PerformAlg(g, affected(10))
		vals := e.Values()
		if vals[0] != 9 || vals[1] != 9 || vals[9] != 9 {
			t.Fatalf("%s: mc values %v", model, vals)
		}
		// Vertices without in-edges from 9 keep their own IDs.
		if vals[5] != 5 {
			t.Fatalf("%s: untouched vertex mutated: %v", model, vals[5])
		}
	}
}

func TestCCSelfLoopAndIsolated(t *testing.T) {
	g := ds.MustNew("adjshared", ds.Config{Directed: true})
	g.Update(graph.Batch{
		{Src: 2, Dst: 2, Weight: 1}, // self loop
		{Src: 4, Dst: 5, Weight: 1},
	})
	for _, model := range []compute.Model{compute.FS, compute.INC} {
		e := compute.MustNewEngine("cc", model, compute.Options{})
		e.PerformAlg(g, affected(6))
		vals := e.Values()
		if vals[2] != 2 {
			t.Fatalf("%s: self loop changed label: %v", model, vals[2])
		}
		if vals[4] != 4 || vals[5] != 4 {
			t.Fatalf("%s: component {4,5} labels %v %v", model, vals[4], vals[5])
		}
		if vals[0] != 0 || vals[1] != 1 || vals[3] != 3 {
			t.Fatalf("%s: isolated labels wrong: %v", model, vals[:4])
		}
	}
}

// TestIncGrowsAcrossBatches: an INC engine must handle the vertex space
// growing between PerformAlg calls (new vertices initialized fresh).
func TestIncGrowsAcrossBatches(t *testing.T) {
	g := ds.MustNew("adjshared", ds.Config{Directed: true})
	e := compute.MustNewEngine("bfs", compute.INC, compute.Options{})
	g.Update(graph.Batch{{Src: 0, Dst: 1, Weight: 1}})
	e.PerformAlg(g, []graph.NodeID{0, 1})
	g.Update(graph.Batch{{Src: 1, Dst: 500, Weight: 1}})
	e.PerformAlg(g, []graph.NodeID{1, 500})
	vals := e.Values()
	if len(vals) != 501 {
		t.Fatalf("values length %d want 501", len(vals))
	}
	if vals[500] != 2 {
		t.Fatalf("depth[500]=%v want 2", vals[500])
	}
	// A vertex that never appeared in any edge stays unreachable.
	if !math.IsInf(vals[250], 1) {
		t.Fatalf("depth[250]=%v want +Inf", vals[250])
	}
}

// TestIncShortcutImprovement: adding a shortcut must lower downstream
// depths through selective triggering alone (affected = new endpoints
// only, the propagation does the rest).
func TestIncShortcutImprovement(t *testing.T) {
	g := ds.MustNew("adjshared", ds.Config{Directed: true})
	e := compute.MustNewEngine("bfs", compute.INC, compute.Options{})
	var chain graph.Batch
	for i := 0; i < 9; i++ {
		chain = append(chain, graph.Edge{Src: graph.NodeID(i), Dst: graph.NodeID(i + 1), Weight: 1})
	}
	g.Update(chain)
	e.PerformAlg(g, affected(10))
	if e.Values()[9] != 9 {
		t.Fatalf("chain depth = %v want 9", e.Values()[9])
	}
	// Shortcut 0 -> 7: depths 7,8,9 collapse to 1,2,3.
	g.Update(graph.Batch{{Src: 0, Dst: 7, Weight: 1}})
	e.PerformAlg(g, []graph.NodeID{0, 7})
	vals := e.Values()
	if vals[7] != 1 || vals[8] != 2 || vals[9] != 3 {
		t.Fatalf("after shortcut: %v", vals[7:])
	}
	if s := e.Stats(); s.Processed > 6 {
		t.Fatalf("selective triggering processed %d vertices; expected a handful", s.Processed)
	}
}

func TestPRMassConservation(t *testing.T) {
	g := ds.MustNew("adjshared", ds.Config{Directed: true, Threads: 2})
	var b graph.Batch
	for i := 0; i < 200; i++ {
		b = append(b, graph.Edge{
			Src: graph.NodeID(i % 40), Dst: graph.NodeID((i*7 + 3) % 40), Weight: 1,
		})
	}
	g.Update(b)
	e := compute.MustNewEngine("pr", compute.FS, compute.Options{Threads: 2})
	e.PerformAlg(g, nil)
	sum := 0.0
	for _, r := range e.Values() {
		if r < 0 {
			t.Fatalf("negative rank %v", r)
		}
		sum += r
	}
	// With dangling mass uncollected the sum is <= 1 but must stay
	// within the plausible band (no blow-up, no collapse).
	if sum <= 0.1 || sum > 1.5 {
		t.Fatalf("implausible PR mass %v", sum)
	}
}

func TestEngineIdentity(t *testing.T) {
	e := compute.MustNewEngine("sssp", compute.FS, compute.Options{})
	if e.Name() != "sssp" || e.Model() != compute.FS {
		t.Fatalf("identity: %s/%s", e.Name(), e.Model())
	}
	if !e.HandlesDeletions() {
		t.Fatal("FS engines must handle deletions")
	}
	// Every INC engine accepts deletions: PageRank natively, the
	// monotone algorithms through KickStarter-style trimming.
	for _, alg := range compute.AlgNames() {
		inc := compute.MustNewEngine(alg, compute.INC, compute.Options{})
		if !inc.HandlesDeletions() {
			t.Fatalf("%s/inc should handle deletions", alg)
		}
	}
}

// TestIncIdentityAndDirectTrim exercises the INC engine identity and a
// direct NotifyDeletions call (the KickStarter trimming entry point; full
// end-to-end coverage lives in internal/core).
func TestIncIdentityAndDirectTrim(t *testing.T) {
	g := ds.MustNew("adjshared", ds.Config{Directed: true})
	e := compute.MustNewEngine("sssp", compute.INC, compute.Options{})
	if e.Name() != "sssp" || e.Model() != compute.INC {
		t.Fatalf("identity %s/%s", e.Name(), e.Model())
	}
	g.Update(graph.Batch{
		{Src: 0, Dst: 1, Weight: 4},
		{Src: 1, Dst: 2, Weight: 3},
	})
	e.PerformAlg(g, affected(3))
	if e.Values()[2] != 7 {
		t.Fatalf("dist[2]=%v want 7", e.Values()[2])
	}
	// Remove the supporting edge and notify: the cone {1,2} must reset
	// and the next compute leaves them unreachable.
	if err := g.(ds.Deleter).Delete(graph.Batch{{Src: 0, Dst: 1, Weight: 4}}); err != nil {
		t.Fatal(err)
	}
	e.(compute.DeletionAware).NotifyDeletions(g, graph.Batch{{Src: 0, Dst: 1, Weight: 4}})
	e.PerformAlg(g, nil)
	vals := e.Values()
	if !math.IsInf(vals[1], 1) || !math.IsInf(vals[2], 1) {
		t.Fatalf("cone not reset: %v", vals)
	}
	if vals[0] != 0 {
		t.Fatalf("source moved: %v", vals[0])
	}
	// PR's engine ignores the notification (no trimming needed).
	pr := compute.MustNewEngine("pr", compute.INC, compute.Options{})
	pr.PerformAlg(g, affected(3))
	pr.(compute.DeletionAware).NotifyDeletions(g, graph.Batch{{Src: 0, Dst: 1, Weight: 4}})
}

// TestBFSBottomUpPath forces the direction-optimizing switch: a dense
// two-level graph whose first frontier covers most vertices triggers the
// bottom-up sweep, which must run (its range records say so) and produce
// the same depths as the reference.
func TestBFSBottomUpPath(t *testing.T) {
	g := ds.MustNew("adjshared", ds.Config{Directed: true, Threads: 2})
	var b graph.Batch
	const hubFan = 200
	for i := 1; i <= hubFan; i++ {
		b = append(b, graph.Edge{Src: 0, Dst: graph.NodeID(i), Weight: 1})
	}
	// Level-2 vertices each reachable from many level-1 vertices (dense
	// in-neighborhoods reward the bottom-up pull).
	for i := 1; i <= hubFan; i++ {
		for j := 0; j < 4; j++ {
			dst := graph.NodeID(hubFan + 1 + (i*7+j*13)%50)
			b = append(b, graph.Edge{Src: graph.NodeID(i), Dst: dst, Weight: 1})
		}
	}
	g.Update(b)
	// Four threads cut the sweep into ranges that share frontier words
	// (run under -race).
	for _, threads := range []int{2, 4} {
		e := compute.MustNewEngine("bfs", compute.FS, compute.Options{Threads: threads, WorkerTiming: true})
		e.PerformAlg(g, nil)
		bottomUp := 0
		for _, r := range e.Stats().Ranges {
			if r.Pass == "fs.bfs.bottomup" {
				bottomUp++
			}
		}
		if bottomUp == 0 {
			t.Fatalf("threads=%d: no level ran bottom-up", threads)
		}
		vals := e.Values()
		if vals[0] != 0 {
			t.Fatal("source depth")
		}
		for i := 1; i <= hubFan; i++ {
			if vals[i] != 1 {
				t.Fatalf("threads=%d: level-1 vertex %d depth %v", threads, i, vals[i])
			}
		}
		for i := hubFan + 1; i < len(vals); i++ {
			if g.InDegree(graph.NodeID(i)) > 0 && vals[i] != 2 {
				t.Fatalf("threads=%d: level-2 vertex %d depth %v", threads, i, vals[i])
			}
		}
	}
}

// TestFSSSSPFarWeights: an edge list may carry any positive finite
// weight, so delta-stepping's bucket index is clamped to a last bucket
// that re-drains until stable. Distances that land in the numbered
// buckets (weight 1), straddle the clamp (1e3) and lie far past it (3e9 —
// which unclamped asks for 375 M buckets) must all match the reference.
func TestFSSSSPFarWeights(t *testing.T) {
	const n = 300
	weights := []graph.Weight{1, 1e3, 3e9}
	var b graph.Batch
	for i := 0; i < n-1; i++ { // a chain keeps every vertex reachable, through all three weights
		b = append(b, graph.Edge{Src: graph.NodeID(i), Dst: graph.NodeID(i + 1), Weight: weights[i%3]})
	}
	for i := 0; i < 4*n; i++ {
		src, dst := graph.NodeID(i*7%n), graph.NodeID((i*i+3*i)%n)
		b = append(b, graph.Edge{Src: src, Dst: dst, Weight: weights[(i+int(src))%3]})
	}
	g := ds.MustNew("adjshared", ds.Config{Directed: true, Threads: 1})
	g.Update(b)
	oracle := graph.NewOracle(true)
	oracle.Update(b)
	view, ok := ds.NewComputeView(g, 1)
	if !ok {
		t.Fatal("adjshared has no compute view")
	}
	view.Refresh(b, nil)
	want := compute.MustReference("sssp", oracle, compute.Options{})
	far := 0
	for _, d := range want {
		if d >= 3e9 && !math.IsInf(d, 1) {
			far++
		}
	}
	if far < n/4 {
		t.Fatalf("only %d of %d distances lie past the clamp", far, n)
	}
	for path, cg := range map[string]ds.Graph{"interface": g, "view": view} {
		e := compute.MustNewEngine("sssp", compute.FS, compute.Options{})
		e.PerformAlg(cg, nil)
		if v := compute.DiffValues(e.Values(), want, compute.Tolerance("sssp")); v >= 0 {
			t.Fatalf("%s: dist[%d] = %v, reference %v", path, v, e.Values()[v], want[v])
		}
	}
}

// failingGraph panics on the n-th OutNeigh call.
type failingGraph struct {
	ds.Graph
	calls *int
}

func (f failingGraph) OutNeigh(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	if *f.calls--; *f.calls == 0 {
		panic("injected adjacency fault")
	}
	return f.Graph.OutNeigh(v, buf)
}

// TestFSForgetsFailedPhase: recomputation from scratch is oblivious to
// the previous batch even when that batch's phase died halfway through a
// level, leaving vertex 3 marked in the frontier. Carried into the next
// phase, the mark would put 3 on level 1 and its out-neighbor 4 at depth 2.
func TestFSForgetsFailedPhase(t *testing.T) {
	g := ds.MustNew("adjshared", ds.Config{Directed: true})
	g.Update(graph.Batch{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 1}, {Src: 3, Dst: 4, Weight: 1}, {Src: 4, Dst: 5, Weight: 1},
	})
	e := compute.MustNewEngine("bfs", compute.FS, compute.Options{})
	calls := 3 // level 1 expands 0; level 2 expands 1, marking 3, then dies expanding 2
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected fault did not surface")
			}
		}()
		e.PerformAlg(failingGraph{g, &calls}, nil)
	}()
	e.PerformAlg(g, nil)
	want := []float64{0, 1, 1, 2, 3, 4}
	for v, d := range e.Values() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %v after a failed phase, want %v", v, d, want[v])
		}
	}
}

func TestMustNewEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewEngine should panic on unknown algorithm")
		}
	}()
	compute.MustNewEngine("nope", compute.FS, compute.Options{})
}

func TestExplicitDelta(t *testing.T) {
	g := line(t, 4)
	e := compute.MustNewEngine("sssp", compute.FS, compute.Options{Delta: 1})
	e.PerformAlg(g, nil)
	if e.Values()[3] != 6 {
		t.Fatalf("delta=1 dist %v want 6", e.Values()[3])
	}
}
