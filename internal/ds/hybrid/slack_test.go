package hybrid

import (
	"testing"

	"sagabench/internal/ds"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// classBoundaries lists the degrees d in [lo, hi] at which one more
// neighbor changes the storage a vertex needs: d is an array class's
// capacity, or d+1 entries need a larger table class than d.
func classBoundaries(lo, hi int) []int {
	var bs []int
	for d := lo; d <= hi; d++ {
		if ds.CapFor(d+1) != ds.CapFor(d) || IndexSlotsFor(d+1) != IndexSlotsFor(d) {
			bs = append(bs, d)
		}
	}
	return bs
}

// TestShrinkHysteresis: one vertex's degree oscillates by ±1 around every
// array-class and table-class boundary from 8 to 4096, 100 rounds each,
// first on the way up and then on the way down. Each insert and each
// delete is a batch of its own, so every delete is a source group that
// settles. Across the 100 rounds at one boundary the vertex's layout —
// array capacity and table slots, from LayoutOf — changes at most once:
// growth leaves storage at its need and a shrink waits for a drop of two
// classes. After each boundary the array sits at most one class, and the
// table at most one table class, above what the degree needs.
func TestShrinkHysteresis(t *testing.T) {
	s := newStore(1, DefaultHashThreshold, 0)
	const hub = graph.NodeID(0)
	s.EnsureNodes(1)
	next := graph.NodeID(1) // the next fresh destination
	insert := func() {
		s.UpdateEdges([]graph.Edge{{Src: hub, Dst: next, Weight: 1}})
		next++
	}
	deleteLast := func() {
		run := s.verts[hub].run()
		s.DeleteEdges([]graph.Edge{{Src: hub, Dst: run[len(run)-1].ID}})
	}
	type layout struct{ arr, idx int }
	layoutNow := func() layout {
		a, i := s.LayoutOf(hub)
		return layout{a, i}
	}
	oscillate := func(b int, first, second func()) {
		t.Helper()
		copies, prev := 0, layoutNow()
		for r := 0; r < 100; r++ {
			for _, op := range []func(){first, second} {
				op()
				if l := layoutNow(); l != prev {
					copies++
					prev = l
				}
			}
		}
		if copies > 1 {
			t.Fatalf("degree %d↔%d: the layout changed %d times in 100 rounds", b, b+1, copies)
		}
		deg := s.Degree(hub)
		if a := int(s.verts[hub].acap); classOf(a) > classOf(ds.CapFor(deg))+1 {
			t.Fatalf("degree %d: array of %d, more than one class above %d", deg, a, ds.CapFor(deg))
		}
		if idx := s.verts[hub].idx; idx != nil && classOf(len(idx.slots)) > classOf(IndexSlotsFor(deg))+idxClassStep {
			t.Fatalf("degree %d: table of %d slots, more than one table class above %d", deg, len(idx.slots), IndexSlotsFor(deg))
		}
	}

	bounds := classBoundaries(8, 4096)
	if len(bounds) < 40 {
		t.Fatalf("only %d class boundaries between 8 and 4096", len(bounds))
	}
	for _, b := range bounds {
		for s.Degree(hub) < b {
			insert()
		}
		oscillate(b, insert, deleteLast)
	}
	if s.TierOf(hub) != TierHash {
		t.Fatalf("tier at degree %d = %v, want hash", s.Degree(hub), s.TierOf(hub))
	}
	insert()
	for i := len(bounds) - 1; i >= 0; i-- {
		b := bounds[i]
		for s.Degree(hub) > b+1 {
			deleteLast()
		}
		oscillate(b, deleteLast, insert)
	}
	if s.TierOf(hub) != TierArray {
		t.Fatalf("tier at degree %d = %v, want array", s.Degree(hub), s.TierOf(hub))
	}
}

// TestWindowedChurnSlack is the memory-slack gate: a fixed-seed windowed
// RMAT stream at 2^14 vertices (update-churn's shape at 1/16 scale: 20
// batches of preload, then 40 batches that each expire the batch 20
// before them) must end with array capacity at most 1.3× the neighbors it
// holds, at most 2 index slots per hash-tier entry, and at most 1 MiB in
// the pools. It logs the census by owner (CI runs it with -v).
func TestWindowedChurnSlack(t *testing.T) {
	const (
		nodes  = 1 << 14
		batch  = 6250
		window = 20
		total  = 60
	)
	g := mustGraph(t, true, 2)
	born := map[graph.Edge]int{} // the batch that last added an edge
	var ring []graph.Batch
	for b := 0; b < total; b++ {
		adds := gen.Spec{Kind: gen.KindRMAT, Directed: true, NumNodes: nodes, NumEdges: batch,
			A: .55, B: .15, C: .15, D: .15}.Generate(int64(2 * b))
		for i := range adds {
			adds[i].Weight = 1
			born[adds[i]] = b
		}
		var dels graph.Batch
		if len(ring) == window {
			for _, e := range ring[0] {
				if born[e] == b-window {
					dels = append(dels, e)
					delete(born, e)
				}
			}
			ring = ring[1:]
		}
		ring = append(ring, adds)
		g.Update(adds)
		if err := g.Delete(dels); err != nil {
			t.Fatal(err)
		}
	}

	f, _ := ds.FootprintOf(g)
	var entries, slots int
	for _, s := range []*store{g.OutStore().(*store), g.InStore().(*store)} {
		for v := 0; v < s.NumNodes(); v++ {
			if _, n := s.LayoutOf(graph.NodeID(v)); n > 0 {
				slots += n
				entries += s.Degree(graph.NodeID(v))
			}
		}
	}
	arrRatio := float64(f.ArrayCap) / float64(f.ArrayLive)
	perEntry := float64(slots) / float64(entries)
	t.Logf("census: records %d B, arrays %d B at capacity holding %d B of neighbors (%.2f×), index %d B (%d slots for %d hash-tier entries, %.2f per entry), pooled %d B",
		f.Records, f.ArrayCap, f.ArrayLive, arrRatio, f.IndexSlots, slots, entries, perEntry, f.Pooled)
	if entries == 0 {
		t.Fatal("the stream left no vertex in the hash tier")
	}
	if arrRatio > 1.3 {
		t.Errorf("arrays hold %.2f× their neighbors, want ≤ 1.3", arrRatio)
	}
	if perEntry > 2.0 {
		t.Errorf("%.2f index slots per hash-tier entry, want ≤ 2.0", perEntry)
	}
	if f.Pooled > 1<<20 {
		t.Errorf("pools hold %d bytes, want ≤ 1 MiB", f.Pooled)
	}
}
