package dah

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// TestRobinHoodInvariant checks the defining property after random
// insert/remove workloads: scanning from any occupied slot, an entry's
// probe distance never exceeds the query distance at its position — i.e.
// lookups may terminate at the first "richer" resident.
func TestRobinHoodInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := newRHTable()
	type pair struct{ src, dst graph.NodeID }
	present := map[pair]bool{}
	for i := 0; i < 3000; i++ {
		src := graph.NodeID(rng.Intn(60))
		dst := graph.NodeID(rng.Intn(200))
		p := pair{src, dst}
		if rng.Intn(5) == 0 {
			tb.removeAll(src)
			for q := range present {
				if q.src == src {
					delete(present, q)
				}
			}
			continue
		}
		if !present[p] {
			if tb.lookup(src, dst) >= 0 {
				t.Fatal("lookup found an absent pair")
			}
			tb.insert(src, dst, 1)
			present[p] = true
		}
	}
	// Invariant over the whole table.
	for i := range tb.slots {
		s := tb.slots[i]
		if !s.used {
			continue
		}
		d := tb.dist(uint64(i), s.src)
		// Walk back d slots: all must be occupied (no holes inside a
		// probe run — Robin Hood with backward-shift deletion).
		for k := uint64(1); k <= d; k++ {
			j := (uint64(i) - k) & tb.mask()
			if !tb.slots[j].used {
				t.Fatalf("hole at %d inside probe run of slot %d (dist %d)", j, i, d)
			}
		}
	}
	// All present pairs findable, all others not.
	for p := range present {
		if tb.lookup(p.src, p.dst) < 0 {
			t.Fatalf("pair %v lost", p)
		}
	}
	if tb.count != len(present) {
		t.Fatalf("count=%d want %d", tb.count, len(present))
	}
}

func TestRobinHoodForEach(t *testing.T) {
	tb := newRHTable()
	want := map[graph.NodeID]graph.Weight{}
	for i := 0; i < 10; i++ {
		dst := graph.NodeID(i * 3)
		w := graph.Weight(i + 1)
		tb.insert(5, dst, w)
		want[dst] = w
	}
	tb.insert(6, 1, 9) // different source must not appear
	got := map[graph.NodeID]graph.Weight{}
	tb.forEach(5, func(dst graph.NodeID, w graph.Weight) { got[dst] = w })
	if len(got) != len(want) {
		t.Fatalf("forEach yielded %d edges want %d", len(got), len(want))
	}
	for dst, w := range want {
		if got[dst] != w {
			t.Fatalf("dst %d weight %v want %v", dst, got[dst], w)
		}
	}
}

func TestRobinHoodGrowth(t *testing.T) {
	tb := newRHTable()
	n := rhInitialSize * 2 // force at least two growths
	for i := 0; i < n; i++ {
		tb.insert(graph.NodeID(i%31), graph.NodeID(i), 1)
	}
	if tb.count != n {
		t.Fatalf("count=%d want %d", tb.count, n)
	}
	if float64(tb.count) > rhMaxLoad*float64(len(tb.slots)) {
		t.Fatalf("load factor exceeded after growth: %d/%d", tb.count, len(tb.slots))
	}
	for i := 0; i < n; i++ {
		if tb.lookup(graph.NodeID(i%31), graph.NodeID(i)) < 0 {
			t.Fatalf("pair %d lost across growth", i)
		}
	}
}

// TestRobinHoodQuick is a property test: any sequence of inserts of
// distinct pairs is fully retrievable and enumeration per source matches.
func TestRobinHoodQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		tb := newRHTable()
		type pair struct{ src, dst graph.NodeID }
		present := map[pair]bool{}
		for i := 0; i+1 < len(raw); i += 2 {
			p := pair{graph.NodeID(raw[i] % 128), graph.NodeID(raw[i+1])}
			if present[p] {
				continue
			}
			tb.insert(p.src, p.dst, 1)
			present[p] = true
		}
		perSrc := map[graph.NodeID]int{}
		for p := range present {
			if tb.lookup(p.src, p.dst) < 0 {
				return false
			}
			perSrc[p.src]++
		}
		for src, want := range perSrc {
			n := 0
			tb.forEach(src, func(graph.NodeID, graph.Weight) { n++ })
			if n != want {
				return false
			}
		}
		return tb.count == len(present)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFlushToHighDegree(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 1, FlushThreshold: 8})
	st := g.(*ds.TwoCopy).OutStore().(*store)
	var batch graph.Batch
	for i := 0; i < 20; i++ {
		batch = append(batch, graph.Edge{Src: 4, Dst: graph.NodeID(100 + i), Weight: 1})
	}
	g.Update(batch)
	if !st.IsHighDegree(4) {
		t.Fatal("vertex 4 should have been flushed to the high-degree table")
	}
	if g.OutDegree(4) != 20 {
		t.Fatalf("degree=%d want 20", g.OutDegree(4))
	}
	ns := g.OutNeigh(4, nil)
	if len(ns) != 20 {
		t.Fatalf("neighbors=%d want 20", len(ns))
	}
	// Low-degree vertices stay in the Robin Hood table.
	g.Update(graph.Batch{{Src: 5, Dst: 1, Weight: 1}})
	if st.IsHighDegree(5) {
		t.Fatal("vertex 5 flushed prematurely")
	}
	// The flush must have emptied 4's low-table entries.
	counts, _ := st.LowTableStats()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1 { // only 5→1 remains
		t.Fatalf("low tables hold %d entries want 1", total)
	}
}

func TestDAHMetaOpsCounted(t *testing.T) {
	g := ds.MustNew(Name, ds.Config{Directed: true, Threads: 2, FlushThreshold: 4})
	var batch graph.Batch
	for i := 0; i < 50; i++ {
		batch = append(batch, graph.Edge{Src: graph.NodeID(i % 5), Dst: graph.NodeID(i), Weight: 1})
	}
	g.Update(batch)
	var p ds.UpdateProfile
	g.(*ds.TwoCopy).TakeProfile(&p)
	if p.MetaOps == 0 {
		t.Fatal("meta-operations not counted")
	}
	if p.ScanSteps == 0 {
		t.Fatal("hash probes not counted")
	}
}

func TestMaxProbeStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := newRHTable()
	for i := 0; i < 500; i++ {
		tb.insert(graph.NodeID(rng.Intn(40)), graph.NodeID(i), 1)
	}
	worst := 0
	for src := graph.NodeID(0); src < 40; src++ {
		if p := tb.maxProbeOf(src); p > worst {
			worst = p
		}
	}
	// Robin Hood at 0.7 load keeps probe runs modest; a pathological
	// linear-probing table would show runs near the table size.
	if worst > len(tb.slots)/2 {
		t.Fatalf("probe run %d of %d slots — invariant likely broken", worst, len(tb.slots))
	}
}

func TestEdgeTableGrowth(t *testing.T) {
	et := newEdgeTable(0)
	for i := 0; i < 200; i++ {
		if !et.put(graph.NodeID(i), graph.Weight(i)) {
			t.Fatalf("fresh dst %d reported duplicate", i)
		}
	}
	if et.put(7, 99) {
		t.Fatal("existing dst reported fresh")
	}
	n := 0
	var w7 graph.Weight
	et.forEach(func(dst graph.NodeID, w graph.Weight) {
		n++
		if dst == 7 {
			w7 = w
		}
	})
	if n != 200 || w7 != 99 {
		t.Fatalf("forEach n=%d w7=%v", n, w7)
	}
}
