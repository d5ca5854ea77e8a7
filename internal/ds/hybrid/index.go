package hybrid

import (
	"unsafe"

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

const idxMinSize = 16 // power of two
const idxMaxLoad = 0.7

func hashNode(v graph.NodeID) uint64 {
	x := uint64(v) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

// IndexSlotsFor returns the power-of-two slot count that keeps n entries
// under the load factor.
func IndexSlotsFor(n int) int {
	size := idxMinSize
	for float64(n) > idxMaxLoad*float64(size) {
		size *= 2
	}
	return size
}

func newDstIndex(n int) *dstIndex {
	return &dstIndex{slots: make([]idxSlot, IndexSlotsFor(n))}
}

// reset clears the index for reuse with capacity for at least n entries.
// Oversized tables (>4x the need) are reallocated so a pool slot drained
// from a one-off mega-hub doesn't pin its memory forever.
func (t *dstIndex) reset(n int) {
	size := IndexSlotsFor(n)
	if len(t.slots) < size || len(t.slots) > 4*size {
		t.slots = make([]idxSlot, size)
	} else {
		clear(t.slots)
	}
	t.count = 0
}

func (t *dstIndex) mask() uint64 { return uint64(len(t.slots) - 1) }

func (t *dstIndex) home(dst graph.NodeID) uint64 { return hashNode(dst) & t.mask() }

func (t *dstIndex) dist(slot uint64, dst graph.NodeID) uint64 {
	return (slot - t.home(dst)) & t.mask()
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
		i = (i + 1) & t.mask()
		d++
	}
}

// insert maps dst to position len(arr) — the caller appends it there —
// unless dst is present, in which case it reports the stored position and
// changes nothing. The table grows at the load factor and only for an
// absent dst, so the grow decision comes first: at the brink — one insert
// in 0.7·len — a lookup settles it, and every other insert is the single
// walk of place.
func (t *dstIndex) insert(arr []graph.Neighbor, dst graph.NodeID, probes *uint64) (int32, bool) {
	if float64(t.count+1) > idxMaxLoad*float64(len(t.slots)) {
		if i, ok := t.find(arr, dst, probes); ok {
			return int32(t.slots[i] - 1), true
		}
		t.grow(arr, probes)
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
		i = (i + 1) & t.mask()
		d++
	}
}

// grow doubles the table and refills it from the array.
func (t *dstIndex) grow(arr []graph.Neighbor, probes *uint64) {
	t.slots = make([]idxSlot, len(t.slots)*2)
	t.fill(arr, probes)
}

// fill maps every entry of arr to its position, in array order, into an
// empty table: promotion and growth rebuild from the array, not from the
// old slots.
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
	for i := t.home(dst); ; i = (i + 1) & t.mask() {
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
		j := (i + 1) & t.mask()
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
