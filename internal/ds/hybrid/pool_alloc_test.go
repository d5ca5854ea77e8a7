package hybrid

import (
	"testing"
	"unsafe"

	"sagabench/internal/graph"
)

// TestPoolOpsSteadyStateDoNotAllocate cross-validates the saga:allow
// hotalloc audits in pool.go at the pool-op level (the promote/demote
// cycle test covers the same property end-to-end): once each size class
// and the index pool are stocked, get/put round-trips must be free.
func TestPoolOpsSteadyStateDoNotAllocate(t *testing.T) {
	var p chunkPools
	p.putArr(p.getArr(8))  // stock the 8-class (audited cold make)
	p.putArr(p.getArr(64)) // stock the 64-class
	p.putIdx(p.getIdx(16)) // stock the index pool
	before := p.recycled
	if allocs := testing.AllocsPerRun(100, func() {
		a := p.getArr(8)
		b := p.getArr(64)
		p.putArr(a)
		p.putArr(b)
		idx := p.getIdx(16)
		p.putIdx(idx)
	}); allocs != 0 {
		t.Errorf("steady-state pool round-trip allocates %.1f times per cycle", allocs)
	}
	if p.recycled == before {
		t.Fatal("pool round-trips never recycled anything")
	}
}

// TestVertexRecordSize pins the size the package doc states: the batch
// apply is ordered by source because these records, not cache lines, are
// the unit its walk strides over.
func TestVertexRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(vertex{}); got != 72 {
		t.Fatalf("vertex record is %d bytes; the package doc and srcOrder.bySrc say 72", got)
	}
}

// TestIdxSlotSize pins the hash tier's slot at 8 bytes — eight to a cache
// line, position+1 with 0 for empty instead of a flag word.
func TestIdxSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(idxSlot{}); got != 8 || IndexSlotBytes != 8 {
		t.Fatalf("index slot is %d bytes (IndexSlotBytes %d); the package doc says 8", got, IndexSlotBytes)
	}
}

// TestBySrcStableAndReusesScratch: positions come back ascending by
// source, records of one source in batch order, for sources that need
// one, two and four radix passes; a second call of the same size
// allocates nothing.
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
	check(bucket[:4]) // sources below 2^17: three passes
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
