package hybrid

import (
	"testing"
	"unsafe"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// TestPoolOpsSteadyStateDoNotAllocate cross-validates the saga:allow
// hotalloc audits in pool.go at the pool-op level (the promote/demote
// cycle test covers the same property end-to-end): once each size class
// and the index pool are stocked, get/put round-trips must be free.
func TestPoolOpsSteadyStateDoNotAllocate(t *testing.T) {
	var p chunkPools
	p.putArr(p.getArr(8))  // stock the 8-class (audited cold make)
	p.putArr(p.getArr(56)) // stock the 56-class
	p.putIdx(p.getIdx(16)) // stock the index pool
	before := p.recycled
	if allocs := testing.AllocsPerRun(100, func() {
		a, ac := p.getArr(8)
		b, bc := p.getArr(56)
		p.putArr(a, ac)
		p.putArr(b, bc)
		idx := p.getIdx(16)
		p.putIdx(idx)
	}); allocs != 0 {
		t.Errorf("steady-state pool round-trip allocates %.1f times per cycle", allocs)
	}
	if p.recycled == before {
		t.Fatal("pool round-trips never recycled anything")
	}
}

// TestVertexRecordSize pins the size the package doc states — one cache
// line — and that the records of a store at 2^18 vertices start on a line
// boundary, so no record straddles two.
func TestVertexRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(vertex{}); got != 64 || RecordBytes != 64 {
		t.Fatalf("vertex record is %d bytes (RecordBytes %d); the package doc says 64", got, RecordBytes)
	}
	s := newStore(1, DefaultHashThreshold, 0)
	s.EnsureNodes(1 << 18)
	if addr := uintptr(unsafe.Pointer(&s.verts[0])); addr%64 != 0 {
		t.Fatalf("records start at %#x, not on a 64-byte boundary", addr)
	}
}

// TestIdxSlotSize pins the hash tier's slot at 4 bytes — sixteen to a
// cache line, position+1 with 0 for empty, the destination read back
// from the array.
func TestIdxSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(idxSlot(0)); got != 4 || IndexSlotBytes != 4 {
		t.Fatalf("index slot is %d bytes (IndexSlotBytes %d); the package doc says 4", got, IndexSlotBytes)
	}
}

// TestSizeClasses checks the array size classes for every n ≤ 2^22:
// ds.CapFor(n) fits n, never falls as n grows, is a class that classOf
// numbers and classCap maps back, and each class is at most 1.25× the
// one before it.
func TestSizeClasses(t *testing.T) {
	prev, prevCls := 0, -1
	for n := 0; n <= 1<<22; n++ {
		c := ds.CapFor(n)
		if c < n || c < prev {
			t.Fatalf("ds.CapFor(%d) = %d (ds.CapFor(%d) = %d)", n, c, n-1, prev)
		}
		if c == prev {
			continue
		}
		cls := classOf(c)
		if cls < 0 || classCap(cls) != c {
			t.Fatalf("ds.CapFor(%d) = %d: classOf %d, whose capacity is %d", n, c, cls, classCap(cls))
		}
		if prevCls >= 0 {
			if cls != prevCls+1 {
				t.Fatalf("ds.CapFor(%d) = %d is class %d, the class before was %d", n, c, cls, prevCls)
			}
			if 4*c > 5*prev {
				t.Fatalf("class %d (%d) is more than 1.25× class %d (%d)", cls, c, prevCls, prev)
			}
		}
		prev, prevCls = c, cls
	}
	for _, c := range []int{0, 7, 9, 11, 18, 33, 1 << 30} {
		if cls := classOf(c); cls >= 0 {
			t.Errorf("classOf(%d) = %d, want -1 for a capacity that is not a pooled class", c, cls)
		}
	}
}

// TestBySrcStableAndReusesScratch: positions come back ascending by
// source, records of one source in batch order, for sources up to 2^32,
// 2^17 and 2^9 — always two counting passes, on a digit of half the
// sources' width; a second call of the same size allocates nothing.
func TestBySrcStableAndReusesScratch(t *testing.T) {
	var o srcOrder
	var bucket []graph.Edge
	srcs := []graph.NodeID{70000, 3, 255, 256, 3, 1 << 31, 0, 70000, 255, 3}
	for i, s := range srcs {
		bucket = append(bucket, graph.Edge{Src: s, Dst: graph.NodeID(i)})
	}
	check := func(bucket []graph.Edge) {
		t.Helper()
		order := o.bySrc(bucket)
		if len(order) != len(bucket) {
			t.Fatalf("%d positions for %d records", len(order), len(bucket))
		}
		for k := 1; k < len(order); k++ {
			p, q := bucket[order[k-1]], bucket[order[k]]
			if p.Src > q.Src || (p.Src == q.Src && order[k-1] > order[k]) {
				t.Fatalf("position %d: %v before %v", k, p, q)
			}
		}
	}
	check(bucket)
	check(bucket[:4]) // sources below 2^17: two passes on a 9-bit digit
	check(bucket[1:3])
	check(nil)
	if allocs := testing.AllocsPerRun(50, func() { o.bySrc(bucket) }); allocs != 0 {
		t.Errorf("steady-state bySrc allocates %.1f times", allocs)
	}
	// Retention: a scratch grown for a large bucket survives buckets a
	// quarter its size and is re-made, small, for much smaller ones.
	big := make([]graph.Edge, 8*srcOrderFloor)
	o.bySrc(big)
	o.bySrc(big[:len(big)/srcOrderSlack])
	if cap(o.pos) != len(big) {
		t.Errorf("a bucket 1/%d the scratch's size re-made it (cap %d)", srcOrderSlack, cap(o.pos))
	}
	o.bySrc(big[:100])
	if cap(o.pos) != 100 || cap(o.keys) != 100 {
		t.Errorf("scratch of %d records kept for a bucket of 100", cap(o.pos))
	}
}
