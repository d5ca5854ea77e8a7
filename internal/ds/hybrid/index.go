package hybrid

import (
	"math/bits"
	"unsafe"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// dstIndex is a Robin Hood open-addressing map from destination vertex to
// the neighbor's position in the owning vertex's dense edge array. It is
// the high-degree tier's lookup accelerator: the edge payload stays in the
// array (so traversal and flattening remain a contiguous walk), and the
// index only answers "where is dst?" in O(1) expected probes. Unlike DAH's
// shared per-chunk tables, one dstIndex serves exactly one vertex, so its
// probe clusters never interleave with other vertices' edges and deletes
// never reorder a bystander's run.
//
// A slot holds a position only, as GraphTango's table holds locations
// into the edge array: the destination a slot stands for is read back
// from the array, so the lookups take the vertex's array, and a
// resident's home is hashNode(arr[slot-1].ID). Every operation of the
// update path walks its probe cluster once: insert looks up or places,
// take finds and backward-shifts, set rewrites.
type dstIndex struct {
	slots []idxSlot
	count int
}

// idxSlot is 4 bytes, sixteen to a cache line: the array position plus
// one, so the zero slot is the empty slot and no flag is stored.
type idxSlot = uint32

// IndexSlotBytes is the size of one index slot, for the architecture
// shadow's address model.
const IndexSlotBytes = unsafe.Sizeof(idxSlot(0))

// Tables take every other size class of the arrays' ladder
// (ds.CoarseCapFor) — 16, 24, 32, 48, 64, 96, …, two an octave — and hold at most 7 entries
// per 10 slots. A table grows to the class its count needs, 1.33× or 1.5×
// the one it leaves, so a table just past growth is at load 0.47–0.53
// rather than a doubled table's 0.35. Every class of the ladder would pack
// tables tighter still (0.56 after growth), but each probe past an
// occupied slot reads an array entry back: on a windowed RMAT stream at
// 2^18 vertices (2 threads) every class made inserts 17–19 % slower than
// doubling tables did, every other class 10–14 %, and every class saved
// only 2.1 MiB more of the 19.8 MiB the doubling tables held.
const (
	idxMinSize   = 16 // a size class
	idxClassStep = 2  // table classes are every idxClassStep-th array class
	idxLoadNum   = 7  // max load idxLoadNum/idxLoadDen
	idxLoadDen   = 10
)

func hashNode(v graph.NodeID) uint64 {
	x := uint64(v) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

// overLoad reports whether n entries pass the load factor of a table of
// the given number of slots.
func overLoad(n, slots int) bool { return idxLoadDen*n > idxLoadNum*slots }

// IndexSlotsFor returns the smallest table class that holds n entries
// within the load factor.
func IndexSlotsFor(n int) int {
	need := (idxLoadDen*n + idxLoadNum - 1) / idxLoadNum
	return ds.CoarseCapFor(max(need, idxMinSize))
}

func newDstIndex(slots int) *dstIndex {
	return &dstIndex{slots: make([]idxSlot, slots)}
}

// home is dst's first probe: the high word of hash·len, which spreads the
// hash over a table of any length without a power-of-two mask.
func (t *dstIndex) home(dst graph.NodeID) uint64 {
	hi, _ := bits.Mul64(hashNode(dst), uint64(len(t.slots)))
	return hi
}

// next is the slot after i, wrapping at the table's end.
func (t *dstIndex) next(i uint64) uint64 {
	if i++; i == uint64(len(t.slots)) {
		return 0
	}
	return i
}

// dist is how far slot lies past dst's home, around the wrap.
func (t *dstIndex) dist(slot uint64, dst graph.NodeID) uint64 {
	h := t.home(dst)
	if slot < h {
		slot += uint64(len(t.slots))
	}
	return slot - h
}

// find walks dst's probe cluster to the slot holding it, or reports false
// at the slot that proves it absent. Probes are charged to *probes so the
// profiler reports hash scan work like the other structures do.
func (t *dstIndex) find(arr []graph.Neighbor, dst graph.NodeID, probes *uint64) (uint64, bool) {
	i := t.home(dst)
	var d uint64
	for {
		*probes++
		s := t.slots[i]
		if s == 0 {
			return i, false
		}
		r := arr[s-1].ID
		if r == dst {
			return i, true
		}
		if t.dist(i, r) < d {
			return i, false
		}
		i = t.next(i)
		d++
	}
}

// insert maps dst to position len(arr) — the caller appends it there —
// unless dst is present, in which case it reports the stored position and
// changes nothing. The table grows, through the pool p, at the load
// factor and only for an absent dst, so the grow decision comes first: at
// the brink — one insert per class step — a lookup settles it, and every
// other insert is the single walk of place.
func (t *dstIndex) insert(p *chunkPools, arr []graph.Neighbor, dst graph.NodeID, probes *uint64) (int32, bool) {
	if overLoad(t.count+1, len(t.slots)) {
		if i, ok := t.find(arr, dst, probes); ok {
			return int32(t.slots[i] - 1), true
		}
		p.resizeIdx(t, arr, IndexSlotsFor(t.count+1), probes)
	}
	return t.place(arr, dst, probes)
}

// place looks dst up until it meets an empty slot or a resident closer to
// home than the probe; either proves dst absent, and from that slot on
// the walk is the Robin Hood placement of position len(arr).
func (t *dstIndex) place(arr []graph.Neighbor, dst graph.NodeID, probes *uint64) (int32, bool) {
	cur := idxSlot(len(arr) + 1)
	i := t.home(dst)
	var d uint64
	for {
		*probes++
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = cur
			t.count++
			return 0, false
		}
		r := arr[s-1].ID
		if r == dst { // only before the first steal: after it dst is known absent
			return int32(s - 1), true
		}
		if ed := t.dist(i, r); ed < d {
			// Robin Hood: the resident is closer to home than the probe;
			// steal its slot and carry the resident on.
			t.slots[i], cur = cur, s
			dst, d = r, ed
		}
		i = t.next(i)
		d++
	}
}

// fill maps every entry of arr to its position, in array order, into an
// empty table: promotion and every resize rebuild from the array, not
// from the old slots.
func (t *dstIndex) fill(arr []graph.Neighbor, probes *uint64) {
	t.count = 0
	for i := range arr {
		t.place(arr[:i], arr[i].ID, probes)
	}
}

// set re-points dst from position from to position to (a swap-with-last
// delete moved its array entry). No other slot holds from+1, so the walk
// from dst's home knows the slot by its value and reads no array entry.
func (t *dstIndex) set(dst graph.NodeID, from, to int32, probes *uint64) {
	for i := t.home(dst); ; i = t.next(i) {
		*probes++
		switch t.slots[i] {
		case idxSlot(from + 1):
			t.slots[i] = idxSlot(to + 1)
			return
		case 0:
			return
		}
	}
}

// take removes dst and reports the position it mapped to: the walk that
// finds the slot carries on over the rest of the cluster, shifting each
// follower back one slot, which preserves the Robin Hood invariant.
func (t *dstIndex) take(arr []graph.Neighbor, dst graph.NodeID, probes *uint64) (int32, bool) {
	i, ok := t.find(arr, dst, probes)
	if !ok {
		return 0, false
	}
	pos := int32(t.slots[i] - 1)
	for {
		j := t.next(i)
		next := t.slots[j]
		if next == 0 || t.dist(j, arr[next-1].ID) == 0 {
			t.slots[i] = 0
			break
		}
		t.slots[i] = next
		i = j
	}
	t.count--
	return pos, true
}
