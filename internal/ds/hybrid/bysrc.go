package hybrid

import (
	"math/bits"

	"sagabench/internal/graph"
)

// srcOrder is one chunk's scratch for visiting a bucket grouped by source
// vertex, kept from batch to batch: 12 bytes per record — the size of the
// record itself — and the count arrays of one radix digit.
type srcOrder struct {
	keys  []uint64 // (src, position) pairs, ordered by the low half of src
	pos   []uint32 // positions, ordered by src
	count []uint32
}

// srcOrderSlack is how many times larger than the bucket a kept scratch
// may be (once past srcOrderFloor records) before it is re-made at the
// bucket's size: a stream preloaded in 100 K-record batches that settles
// at 10 K does not keep a megabyte per store, while buckets that merely
// differ by a small factor — a delete batch a quarter of its insert batch
// — never reallocate.
const (
	srcOrderSlack = 4
	srcOrderFloor = 4096
)

// bySrc returns the positions of bucket's records in ascending Src order.
// It is a least-significant-digit radix sort of exactly two stable
// counting passes, the digit being half the bits of the largest source:
// 512 counters at 2^18 vertices, 64 Ki at 2^32, never |V|, so the cost
// scales with the bucket. Stability means the records of one source keep
// their batch order: each vertex sees exactly the insert (or delete)
// sequence it would have seen unsorted, and its neighbour order, tier
// history and counters are unchanged — only the interleaving of distinct
// vertices moves, which turns the walk over the vertex records (64 bytes,
// one cache line each) from batch order into one forward sweep. The
// result aliases the scratch and is valid until the next call.
func (o *srcOrder) bySrc(bucket []graph.Edge) []uint32 {
	m := len(bucket)
	if c := cap(o.pos); c < m || (c > srcOrderFloor && c > srcOrderSlack*m) {
		o.keys, o.pos = make([]uint64, m), make([]uint32, m)
	}
	keys, pos := o.keys[:m], o.pos[:m]
	var span graph.NodeID
	for i := range bucket {
		span |= bucket[i].Src
	}
	half := (bits.Len32(uint32(span)) + 1) / 2
	if cap(o.count) < 2<<half {
		o.count = make([]uint32, 2<<half)
	}
	lo, hi, mask := o.count[:1<<half], o.count[1<<half:2<<half], graph.NodeID(1)<<half-1
	clear(o.count[:2<<half])
	for i := range bucket {
		lo[bucket[i].Src&mask]++
		hi[bucket[i].Src>>half]++
	}
	startsOf(lo)
	startsOf(hi)
	// Low half: bucket → keys. High half: keys → positions.
	for i := range bucket {
		src := bucket[i].Src
		keys[lo[src&mask]] = uint64(src)<<32 | uint64(i)
		lo[src&mask]++
	}
	for _, k := range keys {
		pos[hi[k>>32>>half]] = uint32(k)
		hi[k>>32>>half]++
	}
	return pos
}

// startsOf turns digit counts into each digit's first output position.
func startsOf(count []uint32) {
	next := uint32(0)
	for d, n := range count {
		count[d], next = next, next+n
	}
}
