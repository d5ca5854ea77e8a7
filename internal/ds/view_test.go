package ds_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// viewStep is one window of a mixed stream: inserts (with deliberate
// duplicates, exercising weight overwrites) and deletions of previously
// inserted edges.
type viewStep struct {
	adds graph.Batch
	dels graph.Batch
}

// viewStream generates a deterministic mixed stream over numNodes
// vertices. Roughly a third of the inserts duplicate an earlier edge (a
// weight overwrite), and each step deletes a handful of live edges. The
// weight is a function of (src, dst, batch) so duplicates of the same edge
// within one batch agree — parallel ingest makes the winner among unequal
// intra-batch weights nondeterministic — while cross-batch duplicates
// still rewrite the stored weight.
func viewStream(seed int64, batches, batchSize, numNodes int) []viewStep {
	rng := rand.New(rand.NewSource(seed))
	var live []graph.Edge
	steps := make([]viewStep, batches)
	for b := range steps {
		var adds, dels graph.Batch
		for i := 0; i < batchSize; i++ {
			var e graph.Edge
			if len(live) > 0 && rng.Intn(3) == 0 {
				e = live[rng.Intn(len(live))]
			} else {
				e = graph.Edge{
					Src: graph.NodeID(rng.Intn(numNodes)),
					Dst: graph.NodeID(rng.Intn(numNodes)),
				}
			}
			// Symmetric in (Src, Dst): undirected ingest mirrors each edge,
			// so (u,v) and (v,u) in one batch must agree on weight too.
			lo, hi := int(e.Src), int(e.Dst)
			if lo > hi {
				lo, hi = hi, lo
			}
			e.Weight = graph.Weight(1 + (lo+7*hi+13*b)%9)
			adds = append(adds, e)
			live = append(live, e)
		}
		for i := 0; i < batchSize/8 && len(live) > 0; i++ {
			k := rng.Intn(len(live))
			dels = append(dels, live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		steps[b] = viewStep{adds: adds, dels: dels}
	}
	return steps
}

// TestComputeViewMatchesOracleAndFullRebuild streams mixed batches through
// every registered structure and checks, after every step, that (a) the
// incrementally refreshed mirror's topology matches the sequential oracle
// exactly, and (b) every run of the mirror is identical — order included —
// to the same run of a freshly built mirror of the same structure. (b) is
// the incremental-vs-full consistency property: a mirror that relocated
// dirty runs and carried clean ones through compactions must read
// bit-for-bit like a from-scratch flatten.
func TestComputeViewMatchesOracleAndFullRebuild(t *testing.T) {
	for _, name := range ds.Names() {
		for _, directed := range []bool{true, false} {
			name, directed := name, directed
			t.Run(fmt.Sprintf("%s/directed=%v", name, directed), func(t *testing.T) {
				t.Parallel()
				g := ds.MustNew(name, ds.Config{Directed: directed, Threads: 3})
				view, ok := ds.NewComputeView(g, 3)
				if !ok {
					t.Fatalf("NewComputeView(%s) not supported", name)
				}
				oracle := graph.NewOracle(directed)
				del, canDelete := g.(ds.Deleter)
				for bi, step := range viewStream(0xC0FFEE+int64(len(name)), 16, 120, 80) {
					dels := step.dels
					if !canDelete {
						dels = nil
					}
					g.Update(step.adds)
					oracle.Update(step.adds)
					if len(dels) > 0 {
						if err := del.Delete(dels); err != nil {
							t.Fatalf("batch %d: delete: %v", bi, err)
						}
						oracle.Delete(dels)
					}
					view.Refresh(step.adds, dels)

					if diffs := ds.DiffOracle(view, oracle, 4); len(diffs) != 0 {
						t.Fatalf("batch %d: view diverged from oracle: %v", bi, diffs)
					}

					fresh, ok := ds.NewComputeView(g, 3)
					if !ok {
						t.Fatalf("batch %d: fresh view construction failed", bi)
					}
					fresh.Refresh(nil, nil) // first refresh is a full build
					if err := sameRuns(view.FlatCSR(), fresh.FlatCSR()); err != nil {
						t.Fatalf("batch %d: incrementally refreshed mirror differs from a full build: %v", bi, err)
					}
				}
				if view.LastRefresh().Nodes == 0 {
					t.Fatal("stream never populated the view")
				}
			})
		}
	}
}

// sameRuns reports the first difference between two CSRs read run by run
// (neighbor order included), whatever layout each uses; in-only CSRs
// compare out-degrees where the others compare out-runs, and ID runs where
// the others compare in-runs.
func sameRuns(a, b *graph.CSR) error {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("%d vertices / %d edges vs %d / %d", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	if a.HasIn() != b.HasIn() || a.HasOut() != b.HasOut() {
		return fmt.Errorf("a direction mirrored on one side only")
	}
	for v := 0; v < a.NumNodes(); v++ {
		id := graph.NodeID(v)
		if a.OutDegree(id) != b.OutDegree(id) {
			return fmt.Errorf("out-degree(%d) = %d vs %d", v, a.OutDegree(id), b.OutDegree(id))
		}
		if a.HasOut() && !slices.Equal(a.Out(id), b.Out(id)) {
			return fmt.Errorf("out(%d) = %v vs %v", v, a.Out(id), b.Out(id))
		}
		if !a.HasOut() {
			if !slices.Equal(a.InIDRun(id), b.InIDRun(id)) {
				return fmt.Errorf("in(%d) = %v vs %v", v, a.InIDRun(id), b.InIDRun(id))
			}
		} else if a.HasIn() && !slices.Equal(a.In(id), b.In(id)) {
			return fmt.Errorf("in(%d) = %v vs %v", v, a.In(id), b.In(id))
		}
	}
	return nil
}

// TestComputeViewFallback verifies that graphs without a flattenable
// backing store are reported as unsupported rather than wrapped.
func TestComputeViewFallback(t *testing.T) {
	frozen := ds.NewCSRGraph(graph.CSR{})
	if _, ok := ds.NewComputeView(frozen, 2); ok {
		t.Fatal("NewComputeView accepted a non-TwoCopy graph")
	}
}

// TestComputeViewReadOnly verifies the mirror refuses direct updates.
func TestComputeViewReadOnly(t *testing.T) {
	g := ds.MustNew("adjshared", ds.Config{Directed: true})
	view, ok := ds.NewComputeView(g, 1)
	if !ok {
		t.Fatal("NewComputeView failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Update on a ComputeView did not panic")
		}
	}()
	view.Update(graph.Batch{{Src: 0, Dst: 1}})
}

// TestComputeViewDropSpares pins down the buffer contract behind epoch
// publication: a handed-out CSR stays intact through the next refresh, and
// for good once DropSpares precedes every refresh after that. The index is
// double-buffered, so by default the third refresh patches the spans
// handed out two refreshes ago; back-to-back compactions of a graph that
// is not growing likewise refill the arena the first of them superseded
// (the control half asserts both reuses so the test has teeth). After
// DropSpares the refresh writes freshly allocated ones, leaving what a
// pinned snapshot may still hold bit-for-bit intact.
func TestComputeViewDropSpares(t *testing.T) {
	mkBatch := func(round int) graph.Batch {
		var b graph.Batch
		for src := 0; src < 16; src++ {
			for k := 1; k <= 3; k++ {
				b = append(b, graph.Edge{
					Src:    graph.NodeID(src),
					Dst:    graph.NodeID((src + k) % 16),
					Weight: graph.Weight(1 + (src+k+round)%7),
				})
			}
		}
		return b
	}
	setup := func() (ds.Graph, *ds.ComputeView) {
		g := ds.MustNew("adjshared", ds.Config{Directed: true, Threads: 2})
		view, ok := ds.NewComputeView(g, 2)
		if !ok {
			t.Fatal("NewComputeView failed")
		}
		b := mkBatch(0)
		g.Update(b)
		view.Refresh(b, nil)
		return g, view
	}
	step := func(g ds.Graph, view *ds.ComputeView, round int) {
		b := mkBatch(round) // same edges, new weights: dirty, no growth
		g.Update(b)
		view.Refresh(b, nil)
	}

	runsOf := func(c *graph.CSR) [][]graph.Neighbor {
		runs := make([][]graph.Neighbor, c.NumNodes())
		for v := range runs {
			runs[v] = slices.Clone(c.Out(graph.NodeID(v)))
		}
		return runs
	}
	checkHeld := func(when string, held *graph.CSR, want [][]graph.Neighbor) {
		t.Helper()
		for v, w := range want {
			if got := held.Out(graph.NodeID(v)); !slices.Equal(got, w) {
				t.Fatalf("%s: held CSR changed: out(%d) = %v, want %v", when, v, got, w)
			}
		}
	}

	// Control: without DropSpares, a held CSR survives one refresh, and
	// refresh 3 reuses refresh 1's index and (every refresh here rewrites
	// all runs, so each one compacts) refresh 1's arena.
	g, view := setup()
	held := *view.FlatCSR()
	wantRuns := runsOf(&held)
	step(g, view, 1)
	checkHeld("control, one refresh on", &held, wantRuns)
	step(g, view, 2)
	if c3 := view.FlatCSR(); &c3.OutSpans[0] != &held.OutSpans[0] || &c3.OutAdj[0] != &held.OutAdj[0] {
		t.Fatal("control: third refresh did not reuse the spare index and the retired arena; DropSpares test would be vacuous")
	}

	// With DropSpares before every refresh, as under a reader that never
	// releases: no refresh touches the held index, and the held CSR reads
	// the same runs after relocations and compactions alike.
	g, view = setup()
	held = *view.FlatCSR()
	wantRuns = runsOf(&held)
	compactions := 0
	for round := 1; round < 12; round++ {
		view.DropSpares()
		step(g, view, round)
		if c := view.FlatCSR(); &c.OutSpans[0] == &held.OutSpans[0] || &c.InSpans[0] == &held.InSpans[0] {
			t.Fatalf("refresh %d after DropSpares reused the dropped index", round+1)
		} else if &c.OutAdj[0] == &held.OutAdj[0] || &c.InAdj[0] == &held.InAdj[0] {
			t.Fatalf("refresh %d after DropSpares refilled the held arena", round+1)
		}
		if view.LastRefresh().Full {
			compactions++
		}
	}
	if compactions == 0 {
		t.Fatal("no compaction in 11 full-rewrite refreshes; the held-CSR check would not cover one")
	}
	checkHeld("DropSpares before every refresh", &held, wantRuns)
}

// TestExportEdgesParallel checks the fanned-out exporter produces the
// identical canonical edge list as the sequential one, for every
// structure, after a mixed stream.
func TestExportEdgesParallel(t *testing.T) {
	for _, name := range ds.Names() {
		for _, directed := range []bool{true, false} {
			name, directed := name, directed
			t.Run(fmt.Sprintf("%s/directed=%v", name, directed), func(t *testing.T) {
				t.Parallel()
				g := ds.MustNew(name, ds.Config{Directed: directed, Threads: 3})
				del, canDelete := g.(ds.Deleter)
				for _, step := range viewStream(99, 10, 150, 64) {
					g.Update(step.adds)
					if canDelete && len(step.dels) > 0 {
						if err := del.Delete(step.dels); err != nil {
							t.Fatalf("delete: %v", err)
						}
					}
				}
				want := ds.ExportEdges(g)
				for _, threads := range []int{1, 2, 5} {
					got := ds.ExportEdgesParallel(g, threads)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("threads=%d: parallel export differs (%d vs %d edges)", threads, len(got), len(want))
					}
				}
			})
		}
	}
}
