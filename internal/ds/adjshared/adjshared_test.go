package adjshared

import (
	"testing"
	"unsafe"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

func outStore(t *testing.T, g ds.Graph) *store {
	t.Helper()
	return g.(*ds.TwoCopy).OutStore().(*store)
}

func TestScanStepsAccounting(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 1})
	// Distinct inserts for one source: insert i scans i slots first.
	var want uint64
	for i := 0; i < 20; i++ {
		g.Update(graph.Batch{{Src: 0, Dst: graph.NodeID(100 + i), Weight: 1}})
		want += uint64(i)
	}
	var p ds.UpdateProfile
	g.(*ds.TwoCopy).TakeProfile(&p)
	// The in-copy scans are over per-destination single vectors (0 each).
	if p.ScanSteps != want {
		t.Fatalf("ScanSteps=%d want %d", p.ScanSteps, want)
	}
	// A duplicate must scan until found and not insert.
	g.Update(graph.Batch{{Src: 0, Dst: 105, Weight: 9}})
	var dup ds.UpdateProfile
	g.(*ds.TwoCopy).TakeProfile(&dup)
	if dup.Inserted != 0 {
		t.Fatal("duplicate caused an insert")
	}
	if dup.ScanSteps == 0 {
		t.Fatal("duplicate search did not scan")
	}
}

func TestVectorCapGrowth(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 1})
	st := outStore(t, g)
	var batch graph.Batch
	for i := 0; i < 100; i++ {
		batch = append(batch, graph.Edge{Src: 5, Dst: graph.NodeID(i + 10), Weight: 1})
	}
	g.Update(batch)
	if c := st.VectorCap(5); c < 100 {
		t.Fatalf("VectorCap=%d want >= 100", c)
	}
	if c := st.VectorCap(0); c != 0 {
		t.Fatalf("untouched vertex cap=%d want 0", c)
	}
}

func TestLockConflictCounting(t *testing.T) {
	// Hammer one vertex from many threads; with real parallelism the
	// counter must register conflicts, but even without it the counter
	// must stay consistent (never exceed ingested edges).
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 8})
	batch := make(graph.Batch, 5000)
	for i := range batch {
		batch[i] = graph.Edge{Src: 1, Dst: graph.NodeID(i % 37), Weight: 1}
	}
	g.Update(batch)
	var p ds.UpdateProfile
	g.(*ds.TwoCopy).TakeProfile(&p)
	if p.LockConflicts > p.EdgesIngested {
		t.Fatalf("conflicts %d exceed ingested %d", p.LockConflicts, p.EdgesIngested)
	}
	if p.EdgesIngested != 10000 { // out + in copy
		t.Fatalf("EdgesIngested=%d want 10000", p.EdgesIngested)
	}
}

// TestLocksUseHintAllocation checks that growing to the MaxNodesHint the
// store was built with extends the constructor's lock array instead of
// allocating a second, larger one.
func TestLocksUseHintAllocation(t *testing.T) {
	const hint = 1000
	s := newStore(1, hint)
	hinted := unsafe.SliceData(s.locks)
	s.EnsureNodes(hint / 2)
	s.EnsureNodes(hint)
	if got := unsafe.SliceData(s.locks); got != hinted || len(s.locks) != hint || cap(s.locks) != hint {
		t.Fatalf("locks after EnsureNodes(%d): len %d cap %d, constructor's array %v; want len = cap = %d in the constructor's array",
			hint, len(s.locks), cap(s.locks), got == hinted, hint)
	}
	s.EnsureNodes(hint + 1)
	if len(s.locks) != hint+1 {
		t.Fatalf("locks cover %d vertices after growing past the hint, want %d", len(s.locks), hint+1)
	}
}

func TestGrowthAcrossBatches(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 2, MaxNodesHint: 4})
	g.Update(graph.Batch{{Src: 0, Dst: 1, Weight: 1}})
	g.Update(graph.Batch{{Src: 1000, Dst: 2000, Weight: 1}})
	if g.NumNodes() != 2001 {
		t.Fatalf("NumNodes=%d want 2001", g.NumNodes())
	}
	if g.OutDegree(0) != 1 || g.OutDegree(1000) != 1 {
		t.Fatal("degrees lost across growth")
	}
}
