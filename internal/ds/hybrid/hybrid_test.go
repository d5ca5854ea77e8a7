package hybrid

import (
	"fmt"
	"math/rand"
	"testing"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// mustGraph builds a registry-constructed hybrid graph (the TwoCopy
// wrapper the pipeline uses).
func mustGraph(t *testing.T, directed bool, threads int) *ds.TwoCopy {
	t.Helper()
	g, err := ds.New(Name, ds.Config{Directed: directed, Threads: threads})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g.(*ds.TwoCopy)
}

// apply pushes one insert batch through the raw store, growing the vertex
// space the way TwoCopy would.
func apply(s *store, edges ...graph.Edge) {
	max := 0
	for _, e := range edges {
		if int(e.Src) > max {
			max = int(e.Src)
		}
		if int(e.Dst) > max {
			max = int(e.Dst)
		}
	}
	s.EnsureNodes(max + 1)
	s.UpdateEdges(edges)
}

func neighborIDs(s *store, v graph.NodeID) []graph.NodeID {
	var ids []graph.NodeID
	for _, nb := range s.FlatRun(v) {
		ids = append(ids, nb.ID)
	}
	return ids
}

// op is one scripted step: insert or delete (src,dst), then assert the
// source's tier and degree.
type op struct {
	del      bool
	src, dst graph.NodeID
	tier     Tier
	deg      int
}

func ins(src, dst graph.NodeID, tier Tier, deg int) op {
	return op{src: src, dst: dst, tier: tier, deg: deg}
}
func del(src, dst graph.NodeID, tier Tier, deg int) op {
	return op{del: true, src: src, dst: dst, tier: tier, deg: deg}
}

// TestTierTransitions scripts insertion/deletion sequences against a
// single-chunk store with hashAt=6 (so inlineAt=5, uninlineAt=2,
// unhashAt=3) and checks the representation after every step.
func TestTierTransitions(t *testing.T) {
	mkGrow := func(n int) []op {
		// Insert dsts 1..n from vertex 0, asserting the promotion points.
		var ops []op
		for i := 1; i <= n; i++ {
			tier := TierInline
			if i > 6 {
				tier = TierHash
			} else if i > 5 {
				tier = TierArray
			}
			ops = append(ops, ins(0, graph.NodeID(i), tier, i))
		}
		return ops
	}
	cases := []struct {
		name string
		ops  []op
	}{
		{
			name: "inline-array-hash promotion ladder",
			ops:  mkGrow(10),
		},
		{
			name: "overwrite at inline boundary does not promote",
			ops: append(mkGrow(5),
				ins(0, 5, TierInline, 5), // duplicate of the last inline dst
				ins(0, 1, TierInline, 5), // duplicate of the first
			),
		},
		{
			name: "overwrite at hash boundary does not promote",
			ops: append(mkGrow(6),
				ins(0, 6, TierArray, 6),
				ins(0, 3, TierArray, 6),
			),
		},
		{
			name: "mass deletes demote hash to array to inline",
			ops: append(mkGrow(10),
				del(0, 1, TierHash, 9),
				del(0, 2, TierHash, 8),
				del(0, 3, TierHash, 7),
				del(0, 4, TierHash, 6),
				del(0, 5, TierHash, 5),
				del(0, 6, TierHash, 4),
				del(0, 7, TierArray, 3),  // deg 3 = unhashAt: index dropped
				del(0, 8, TierInline, 2), // deg 2 = uninlineAt: array dropped
				del(0, 9, TierInline, 1),
				del(0, 10, TierInline, 0),
			),
		},
		{
			name: "hysteresis holds the hash tier across boundary flapping",
			ops: append(mkGrow(7),
				del(0, 7, TierHash, 6), // back to hashAt: no demotion
				ins(0, 7, TierHash, 7),
				del(0, 7, TierHash, 6),
				ins(0, 7, TierHash, 7),
				del(0, 7, TierHash, 6),
				del(0, 6, TierHash, 5),
				del(0, 5, TierHash, 4),
				ins(0, 5, TierHash, 5), // refill inside the band: still hash
			),
		},
		{
			name: "deleting absent edges never changes the tier",
			ops: append(mkGrow(6),
				del(0, 99, TierArray, 6),
				del(1, 99, TierInline, 0),
			),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(1, 6, 0)
			oracle := map[graph.NodeID]bool{}
			for i, o := range tc.ops {
				if o.del {
					s.EnsureNodes(int(o.src) + 1)
					s.DeleteEdges([]graph.Edge{{Src: o.src, Dst: o.dst}})
					if o.src == 0 {
						delete(oracle, o.dst)
					}
				} else {
					apply(s, graph.Edge{Src: o.src, Dst: o.dst, Weight: 1})
					if o.src == 0 {
						oracle[o.dst] = true
					}
				}
				if got := s.TierOf(o.src); got != o.tier {
					t.Fatalf("op %d (%+v): tier = %v, want %v", i, o, got, o.tier)
				}
				if got := s.Degree(o.src); got != o.deg {
					t.Fatalf("op %d (%+v): degree = %d, want %d", i, o, got, o.deg)
				}
			}
			// Vertex 0's surviving neighbor set must match the oracle.
			got := map[graph.NodeID]bool{}
			for _, id := range neighborIDs(s, 0) {
				if got[id] {
					t.Fatalf("duplicate neighbor %d", id)
				}
				got[id] = true
			}
			if len(got) != len(oracle) {
				t.Fatalf("neighbor set %v, want %v", got, oracle)
			}
			for id := range oracle {
				if !got[id] {
					t.Fatalf("missing neighbor %d (have %v)", id, got)
				}
			}
		})
	}
}

// TestPromotionPreservesOrder checks that tier transitions never reorder a
// run: after the inline→array and array→hash promotions the neighbor
// order is still pure insertion order.
func TestPromotionPreservesOrder(t *testing.T) {
	s := newStore(1, 6, 0)
	var want []graph.NodeID
	for i := 1; i <= 20; i++ {
		apply(s, graph.Edge{Src: 0, Dst: graph.NodeID(i * 3), Weight: 1})
		want = append(want, graph.NodeID(i*3))
	}
	if s.TierOf(0) != TierHash {
		t.Fatalf("tier = %v, want hash", s.TierOf(0))
	}
	got := neighborIDs(s, 0)
	if len(got) != len(want) {
		t.Fatalf("degree %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d, want %d (promotion reordered the run)", i, got[i], want[i])
		}
	}
}

// TestHashTierWeightOverwrite checks duplicate ingestion in the hash tier
// rewrites the weight in place without growing the degree.
func TestHashTierWeightOverwrite(t *testing.T) {
	s := newStore(1, 4, 0)
	for i := 1; i <= 12; i++ {
		apply(s, graph.Edge{Src: 0, Dst: graph.NodeID(i), Weight: 1})
	}
	apply(s, graph.Edge{Src: 0, Dst: 7, Weight: 42})
	if got := s.Degree(0); got != 12 {
		t.Fatalf("degree = %d, want 12", got)
	}
	for _, nb := range s.FlatRun(0) {
		if nb.ID == 7 && nb.Weight != 42 {
			t.Fatalf("weight = %v, want 42", nb.Weight)
		}
	}
	if s.NumEdges() != 12 {
		t.Fatalf("NumEdges = %d, want 12", s.NumEdges())
	}
}

// TestProfileCounters checks the tier-transition counters and the scan
// accounting surface through TakeProfile, which hands each batch's counts
// over once.
func TestProfileCounters(t *testing.T) {
	s := newStore(1, 6, 0)
	var batch []graph.Edge
	for i := 1; i <= 10; i++ {
		batch = append(batch, graph.Edge{Src: 0, Dst: graph.NodeID(i), Weight: 1})
	}
	apply(s, batch...)
	var p ds.UpdateProfile
	s.TakeProfile(&p)
	if p.EdgesIngested != 10 || p.Inserted != 10 {
		t.Fatalf("ingested/inserted = %d/%d, want 10/10", p.EdgesIngested, p.Inserted)
	}
	if p.TierPromotions != 2 {
		t.Fatalf("promotions = %d, want 2 (inline→array, array→hash)", p.TierPromotions)
	}
	if p.TierDemotions != 0 {
		t.Fatalf("demotions = %d, want 0", p.TierDemotions)
	}
	if p.ScanSteps == 0 {
		t.Fatal("scan steps not counted")
	}
	// MetaOps charges transition copies: 5 inline→array + 7 index builds.
	if p.MetaOps == 0 {
		t.Fatal("transition copy work not charged to MetaOps")
	}

	// Drain to empty: hash→array and array→inline demotions.
	for i := 1; i <= 10; i++ {
		s.DeleteEdges([]graph.Edge{{Src: 0, Dst: graph.NodeID(i)}})
	}
	var p2 ds.UpdateProfile
	s.TakeProfile(&p2)
	if p2.TierPromotions != 0 || p2.TierDemotions != 2 {
		t.Fatalf("promotions/demotions since the first take = %d/%d, want 0/2", p2.TierPromotions, p2.TierDemotions)
	}
	if len(p2.ChunkLoads) != 1 || p2.ChunkLoads[0] != 0 {
		t.Fatalf("chunk loads since the first take = %v, want [0] (deletes carry no load)", p2.ChunkLoads)
	}

	var p3 ds.UpdateProfile
	s.TakeProfile(&p3)
	if p3.TierDemotions != 0 || p3.ScanSteps != 0 || p3.MetaOps != 0 {
		t.Fatalf("a take right after a take hands over %+v, want zero counts", p3)
	}
}

// TestPoolsMakeSteadyStateAllocationFree drives a vertex through a full
// promote/demote cycle repeatedly: after the first cycle has stocked the
// chunk pools, further cycles must not allocate on the insert/delete path.
func TestPoolsMakeSteadyStateAllocationFree(t *testing.T) {
	s := newStore(1, 6, 0)
	s.EnsureNodes(32)
	pool := s.pools[0]
	var st chunkCounters
	cycle := func() {
		for i := 1; i <= 8; i++ {
			s.insertOne(pool, &st, 0, graph.NodeID(i), 1)
		}
		for i := 1; i <= 8; i++ {
			s.deleteOne(&st, 0, graph.NodeID(i))
		}
		s.settle(pool, &st, 0)
	}
	cycle() // stock the pools
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state promote/demote cycle allocates %.1f times per cycle", allocs)
	}
	if s.PoolRecycled() == 0 {
		t.Fatal("pools never recycled anything")
	}
}

// TestStagedBucketSteadyStateAllocationFree is the same property for the
// staged apply: a bucket of more than two groups, whose hub's records
// cross group boundaries and promote it inline → array → hash on insert
// and demote it again on delete, applies without allocating once the
// pools and the source-order scratch are stocked.
func TestStagedBucketSteadyStateAllocationFree(t *testing.T) {
	s := newStore(1, 6, 0)
	s.EnsureNodes(1024)
	pool := s.pools[0]
	var bucket []graph.Edge
	for i := 0; i < 2*stageGroup+5; i++ {
		src := graph.NodeID(i % 9) // vertex 4 is the hub, sorted after 1 and 2
		if i%3 == 0 {
			src = 4
		}
		bucket = append(bucket, graph.Edge{Src: src, Dst: graph.NodeID(100 + i), Weight: 1})
	}
	var st chunkCounters
	cycle := func() {
		st = s.insertBucket(pool, bucket)
		s.deleteBucket(pool, bucket)
	}
	cycle() // stock the pools and the scratch
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state staged apply of %d records allocates %.1f times per cycle", len(bucket), allocs)
	}
	if st.promos == 0 {
		t.Fatal("the bucket promoted nothing")
	}
}

// TestUndirectedMirrorTrims deletes through the Graph API on an undirected
// hybrid and checks both orientations disappear, across a degree mix that
// puts the hub in the hash tier and the leaves inline.
func TestUndirectedMirrorTrims(t *testing.T) {
	g := mustGraph(t, false, 2)
	hub := graph.NodeID(0)
	var batch graph.Batch
	for i := 1; i <= 40; i++ {
		batch = append(batch, graph.Edge{Src: hub, Dst: graph.NodeID(i), Weight: 1})
	}
	g.Update(batch)
	if got := g.OutDegree(hub); got != 40 {
		t.Fatalf("hub degree = %d, want 40", got)
	}
	for i := 1; i <= 40; i += 2 {
		if err := g.Delete(graph.Batch{{Src: graph.NodeID(i), Dst: hub}}); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	if got := g.OutDegree(hub); got != 20 {
		t.Fatalf("hub degree after trims = %d, want 20", got)
	}
	for i := 1; i <= 40; i++ {
		want := 1
		if i%2 == 1 {
			want = 0
		}
		if got := g.OutDegree(graph.NodeID(i)); got != want {
			t.Fatalf("leaf %d degree = %d, want %d", i, got, want)
		}
		if got := g.InDegree(graph.NodeID(i)); got != want {
			t.Fatalf("leaf %d in-degree = %d, want %d", i, got, want)
		}
	}
	// The hub's surviving neighbors are exactly the even leaves.
	for _, nb := range g.OutNeigh(hub, nil) {
		if nb.ID%2 == 1 {
			t.Fatalf("deleted mirror (hub,%d) still present", nb.ID)
		}
	}
}

// TestTinyThresholds pins the degenerate configurations used by the shared
// delete-sequence battery: FlushThreshold 2 (inlineAt 1) and 1 (inline
// tier disabled) must still honor the tier order and stay correct.
func TestTinyThresholds(t *testing.T) {
	for _, ht := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("hashAt=%d", ht), func(t *testing.T) {
			s := newStore(1, ht, 0)
			for i := 1; i <= 6; i++ {
				apply(s, graph.Edge{Src: 0, Dst: graph.NodeID(i), Weight: 1})
				if got := s.Degree(0); got != i {
					t.Fatalf("degree = %d, want %d", got, i)
				}
			}
			if s.TierOf(0) != TierHash {
				t.Fatalf("tier = %v, want hash at degree 6", s.TierOf(0))
			}
			for i := 1; i <= 6; i++ {
				s.DeleteEdges([]graph.Edge{{Src: 0, Dst: graph.NodeID(i)}})
			}
			if got := s.Degree(0); got != 0 {
				t.Fatalf("degree = %d, want 0 after drain", got)
			}
			if s.TierOf(0) != TierInline {
				t.Fatalf("tier = %v, want inline after drain", s.TierOf(0))
			}
		})
	}
}

// layoutFootprint rebuilds a store's footprint from the per-vertex
// accessors the architecture shadow reads: records from the slice, arrays
// and index slots from LayoutOf, live array bytes from the degree of every
// vertex TierOf places outside the inline tier. Pooled bytes are not
// visible there and are left out.
func layoutFootprint(s *store) ds.Footprint {
	f := ds.Footprint{Records: int64(cap(s.verts)) * int64(RecordBytes)}
	for v := 0; v < s.NumNodes(); v++ {
		id := graph.NodeID(v)
		arrCap, idxSlots := s.LayoutOf(id)
		f.ArrayCap += int64(arrCap) * neighborBytes
		f.IndexSlots += int64(idxSlots) * int64(IndexSlotBytes)
		if s.TierOf(id) != TierInline {
			f.ArrayLive += int64(s.Degree(id)) * neighborBytes
		}
	}
	return f
}

// TestFootprintMatchesLayout: after a delete-heavy stream over a hub mix,
// ds.FootprintOf on the TwoCopy graph equals the sum of both stores'
// footprints rebuilt from LayoutOf/TierOf, pooled bytes aside. After a
// batch the pools keep of each size class no more than that batch or the
// one before it drew from it. A drain draws nothing — every vertex falls
// to the inline tier, which has no array or table to shrink into — and
// neither does deleting the drained edges again, so after those two
// batches every array and index byte has gone back to the collector and
// the pools are empty, to the byte.
func TestFootprintMatchesLayout(t *testing.T) {
	g := mustGraph(t, true, 2)
	stores := []*store{g.OutStore().(*store), g.InStore().(*store)}
	rng := rand.New(rand.NewSource(24))
	var prev graph.Batch
	for b := 0; b < 8; b++ {
		batch := make(graph.Batch, 3000)
		for i := range batch {
			src := graph.NodeID(rng.Intn(400))
			if rng.Intn(3) == 0 {
				src = graph.NodeID(rng.Intn(4)) // hubs past the hash threshold
			}
			batch[i] = graph.Edge{Src: src, Dst: graph.NodeID(rng.Intn(2000)), Weight: 1}
		}
		g.Update(batch)
		if prev != nil {
			if err := g.Delete(prev[:len(prev)*3/4]); err != nil {
				t.Fatal(err)
			}
		}
		prev = batch
	}
	got, ok := ds.FootprintOf(g)
	if !ok {
		t.Fatal("hybrid does not report a footprint")
	}
	var want ds.Footprint
	tiers := map[Tier]int{}
	for _, s := range stores {
		f := layoutFootprint(s)
		want.Records += f.Records
		want.ArrayCap += f.ArrayCap
		want.ArrayLive += f.ArrayLive
		want.IndexSlots += f.IndexSlots
		for v := 0; v < s.NumNodes(); v++ {
			tiers[s.TierOf(graph.NodeID(v))]++
		}
	}
	want.Pooled = got.Pooled
	if got != want {
		t.Fatalf("footprint %+v, rebuilt from the layout %+v", got, want)
	}
	if tiers[TierArray] == 0 || tiers[TierHash] == 0 || got.Pooled == 0 {
		t.Fatalf("stream left tiers %v and %d pooled bytes: it no longer exercises arrays, indexes and demotion", tiers, got.Pooled)
	}

	var drain graph.Batch
	for v := 0; v < g.NumNodes(); v++ {
		for _, nb := range g.OutNeigh(graph.NodeID(v), nil) {
			drain = append(drain, graph.Edge{Src: graph.NodeID(v), Dst: nb.ID})
		}
	}
	if err := g.Delete(drain); err != nil {
		t.Fatal(err)
	}
	after, _ := ds.FootprintOf(g)
	if after.ArrayCap != 0 || after.ArrayLive != 0 || after.IndexSlots != 0 {
		t.Fatalf("drained graph still holds %+v", after)
	}
	if err := g.Delete(drain); err != nil {
		t.Fatal(err)
	}
	if again, _ := ds.FootprintOf(g); again.Pooled != 0 {
		t.Fatalf("two batches that drew nothing left %d bytes pooled (%d after the first, %d before it, beside %d of arrays and %d of index)",
			again.Pooled, after.Pooled, got.Pooled, got.ArrayCap, got.IndexSlots)
	}
}
