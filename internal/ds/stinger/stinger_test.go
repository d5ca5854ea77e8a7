package stinger

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

func outStore(t *testing.T, g ds.Graph) *store {
	t.Helper()
	return g.(*ds.TwoCopy).OutStore().(*store)
}

func TestBlockChainGrowth(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 1, BlockSize: 4})
	st := outStore(t, g)
	var batch graph.Batch
	for i := 0; i < 10; i++ {
		batch = append(batch, graph.Edge{Src: 2, Dst: graph.NodeID(100 + i), Weight: 1})
	}
	g.Update(batch)
	// 10 edges at block size 4 => ceil(10/4) = 3 blocks.
	if n := st.NumBlocks(2); n != 3 {
		t.Fatalf("NumBlocks=%d want 3", n)
	}
	if d := g.OutDegree(2); d != 10 {
		t.Fatalf("degree=%d want 10", d)
	}
	if st.BlockSize() != 4 {
		t.Fatalf("BlockSize=%d want 4", st.BlockSize())
	}
	// Untouched vertices have no blocks.
	if n := st.NumBlocks(0); n != 0 {
		t.Fatalf("vertex 0 has %d blocks", n)
	}
}

func TestDefaultBlockSize(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true})
	st := outStore(t, g)
	if st.BlockSize() != DefaultBlockSize {
		t.Fatalf("BlockSize=%d want %d", st.BlockSize(), DefaultBlockSize)
	}
}

// TestTwoScanAccounting checks the paper's cost claim: inserting a fresh
// edge scans the chain twice, so scan work for duplicate-free inserts is
// about twice the single-scan cost.
func TestTwoScanAccounting(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 1})
	// Insert 64 distinct edges one batch each so the chain grows and
	// scans lengthen deterministically.
	var wantScans uint64
	deg := uint64(0)
	for i := 0; i < 64; i++ {
		g.Update(graph.Batch{{Src: 1, Dst: graph.NodeID(50 + i), Weight: 1}})
		// Each insert: scan 1 over deg slots, scan 2 over deg slots.
		wantScans += 2 * deg
		deg++
	}
	p, _ := ds.ProfileOf(g)
	// The in-copy contributes scans over single-edge chains (2 scans of
	// 0..0 slots = 0) so the total equals the out-copy's.
	if p.ScanSteps != wantScans {
		t.Fatalf("ScanSteps=%d want %d (two scans per insert)", p.ScanSteps, wantScans)
	}
}

func TestWeightRewriteInPlace(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 4, BlockSize: 2})
	var batch graph.Batch
	for i := 0; i < 7; i++ {
		batch = append(batch, graph.Edge{Src: 3, Dst: graph.NodeID(i), Weight: 1})
	}
	g.Update(batch)
	g.Update(graph.Batch{{Src: 3, Dst: 4, Weight: 42}})
	if d := g.OutDegree(3); d != 7 {
		t.Fatalf("degree changed on rewrite: %d", d)
	}
	for _, nb := range g.OutNeigh(3, nil) {
		if nb.ID == 4 && nb.Weight != 42 {
			t.Fatalf("weight not rewritten: %v", nb)
		}
	}
}

// TestStingerQuick property-checks degree and membership against a map
// under random single-threaded workloads with a tiny block size (so block
// boundaries are exercised constantly).
func TestStingerQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 1, BlockSize: 2})
		want := map[graph.NodeID]map[graph.NodeID]bool{}
		var batch graph.Batch
		for i := 0; i+1 < len(raw); i += 2 {
			src := graph.NodeID(raw[i] % 16)
			dst := graph.NodeID(raw[i+1] % 64)
			batch = append(batch, graph.Edge{Src: src, Dst: dst, Weight: 1})
			if want[src] == nil {
				want[src] = map[graph.NodeID]bool{}
			}
			want[src][dst] = true
		}
		g.Update(batch)
		for src, dsts := range want {
			if g.OutDegree(src) != len(dsts) {
				return false
			}
			seen := map[graph.NodeID]bool{}
			for _, nb := range g.OutNeigh(src, nil) {
				if seen[nb.ID] || !dsts[nb.ID] {
					return false
				}
				seen[nb.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentSingleHub drives heavy contention on one vertex with a
// small block size to stress the extend-and-insert path.
func TestConcurrentSingleHub(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 8, BlockSize: 2})
		rng := rand.New(rand.NewSource(int64(trial)))
		batch := make(graph.Batch, 3000)
		for i := range batch {
			batch[i] = graph.Edge{Src: 0, Dst: graph.NodeID(rng.Intn(61)), Weight: 1}
		}
		g.Update(batch)
		ns := g.OutNeigh(0, nil)
		seen := map[graph.NodeID]bool{}
		for _, nb := range ns {
			if seen[nb.ID] {
				t.Fatalf("trial %d: duplicate %d", trial, nb.ID)
			}
			seen[nb.ID] = true
		}
		if g.OutDegree(0) != len(ns) {
			t.Fatalf("trial %d: degree %d != neighbors %d", trial, g.OutDegree(0), len(ns))
		}
	}
}

func TestDeleteMaintainsChainInvariant(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 1, BlockSize: 4})
	st := outStore(t, g)
	var batch graph.Batch
	for i := 0; i < 9; i++ { // 3 blocks of 4
		batch = append(batch, graph.Edge{Src: 0, Dst: graph.NodeID(10 + i), Weight: 1})
	}
	g.Update(batch)
	if st.NumBlocks(0) != 3 {
		t.Fatalf("blocks=%d want 3", st.NumBlocks(0))
	}
	// Deleting the only slot of the tail block must trim the chain.
	if err := g.(ds.Deleter).Delete(graph.Batch{{Src: 0, Dst: 18}}); err != nil {
		t.Fatal(err)
	}
	if st.NumBlocks(0) != 2 {
		t.Fatalf("blocks=%d want 2 after tail trim", st.NumBlocks(0))
	}
	// Deleting from the first block backfills from the (new) tail.
	if err := g.(ds.Deleter).Delete(graph.Batch{{Src: 0, Dst: 10}}); err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 7 {
		t.Fatalf("degree=%d want 7", g.OutDegree(0))
	}
	seen := map[graph.NodeID]bool{}
	for _, nb := range g.OutNeigh(0, nil) {
		seen[nb.ID] = true
	}
	for i := 11; i <= 17; i++ {
		if !seen[graph.NodeID(i)] {
			t.Fatalf("neighbor %d lost by backfill", i)
		}
	}
	// Drain the vertex entirely: the chain must disappear.
	var rest graph.Batch
	for i := 11; i <= 17; i++ {
		rest = append(rest, graph.Edge{Src: 0, Dst: graph.NodeID(i)})
	}
	if err := g.(ds.Deleter).Delete(rest); err != nil {
		t.Fatal(err)
	}
	if st.NumBlocks(0) != 0 || g.OutDegree(0) != 0 {
		t.Fatalf("blocks=%d degree=%d after draining", st.NumBlocks(0), g.OutDegree(0))
	}
	// Absent deletion on a drained vertex is a no-op.
	if err := g.(ds.Deleter).Delete(graph.Batch{{Src: 0, Dst: 10}}); err != nil {
		t.Fatal(err)
	}
	// Fresh inserts rebuild a clean chain.
	g.Update(graph.Batch{{Src: 0, Dst: 99, Weight: 1}})
	if st.NumBlocks(0) != 1 || g.OutDegree(0) != 1 {
		t.Fatalf("rebuild failed: blocks=%d degree=%d", st.NumBlocks(0), g.OutDegree(0))
	}
}

// TestDeleteAfterLostDuplicateRace covers the chain an insert leaves when
// it finds the tail full, extends the chain, and then finds its edge
// already stored by a concurrent same-batch duplicate: a full block
// followed by an empty one. A delete on that vertex must move the last
// slot of the last non-empty block and drop the empty block (it used to
// index slot -1 of the empty tail, and a shard blocked on the lock the
// panic left held hung the whole batch).
func TestDeleteAfterLostDuplicateRace(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 1, BlockSize: 4})
	st := outStore(t, g)
	var batch graph.Batch
	for i := 0; i < 8; i++ { // 2 full blocks
		batch = append(batch, graph.Edge{Src: 0, Dst: graph.NodeID(10 + i), Weight: 1})
	}
	g.Update(batch)
	hdr := &st.heads[0]
	empty := &block{slots: make([]graph.Neighbor, st.blockSize)}
	hdr.tail.Load().next.Store(empty)
	hdr.tail.Store(empty)

	if err := g.(ds.Deleter).Delete(graph.Batch{{Src: 0, Dst: 10}}); err != nil {
		t.Fatal(err)
	}
	if st.NumBlocks(0) != 2 || hdr.tail.Load() == empty || g.OutDegree(0) != 7 {
		t.Fatalf("blocks=%d degree=%d, want the empty block trimmed and 7 edges", st.NumBlocks(0), g.OutDegree(0))
	}
	want := map[graph.NodeID]bool{}
	for i := 11; i < 18; i++ {
		want[graph.NodeID(i)] = true
	}
	for _, nb := range g.OutNeigh(0, nil) {
		if !want[nb.ID] {
			t.Fatalf("unexpected neighbor %d", nb.ID)
		}
		delete(want, nb.ID)
	}
	if len(want) != 0 {
		t.Fatalf("neighbors lost: %v", want)
	}
	// The partial tail takes the next insert.
	g.Update(graph.Batch{{Src: 0, Dst: 30, Weight: 1}})
	if st.NumBlocks(0) != 2 || g.OutDegree(0) != 8 {
		t.Fatalf("blocks=%d degree=%d after refill", st.NumBlocks(0), g.OutDegree(0))
	}
}
