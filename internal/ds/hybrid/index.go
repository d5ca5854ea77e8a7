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
// Every operation of the update path walks its probe cluster once: insert
// looks up or places, take finds and backward-shifts, set rewrites.
type dstIndex struct {
	slots []idxSlot
	count int
}

// idxSlot is 8 bytes, eight to a cache line. pos holds the array position
// plus one, so the zero slot is the empty slot and no flag is stored.
type idxSlot struct {
	dst graph.NodeID
	pos int32
}

// IndexSlotBytes is the size of one index slot, for the architecture
// shadow's address model.
const IndexSlotBytes = unsafe.Sizeof(idxSlot{})

const idxMinSize = 16 // power of two
const idxMaxLoad = 0.7

func hashNode(v graph.NodeID) uint64 {
	x := uint64(v) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

// idxSizeFor returns the power-of-two slot count that keeps n entries
// under the load factor.
func idxSizeFor(n int) int {
	size := idxMinSize
	for float64(n) > idxMaxLoad*float64(size) {
		size *= 2
	}
	return size
}

func newDstIndex(n int) *dstIndex {
	return &dstIndex{slots: make([]idxSlot, idxSizeFor(n))}
}

// reset clears the index for reuse with capacity for at least n entries.
// Oversized tables (>4x the need) are reallocated so a pool slot drained
// from a one-off mega-hub doesn't pin its memory forever.
func (t *dstIndex) reset(n int) {
	size := idxSizeFor(n)
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
func (t *dstIndex) find(dst graph.NodeID, probes *uint64) (uint64, bool) {
	i := t.home(dst)
	var d uint64
	for {
		*probes++
		s := t.slots[i]
		if s.pos != 0 && s.dst == dst {
			return i, true
		}
		if s.pos == 0 || t.dist(i, s.dst) < d {
			return i, false
		}
		i = (i + 1) & t.mask()
		d++
	}
}

// insert maps dst→pos unless dst is present, in which case it reports the
// stored position and changes nothing. The table grows at the load factor
// and only for an absent dst, so the grow decision comes first: at the
// brink — one insert in 0.7·len — a lookup settles it, and every other
// insert is the single walk below. It looks dst up until it meets an empty
// slot or a resident closer to home than the probe; either proves dst
// absent, and from that slot on the walk is the Robin Hood placement.
func (t *dstIndex) insert(dst graph.NodeID, pos int32, probes *uint64) (int32, bool) {
	if float64(t.count+1) > idxMaxLoad*float64(len(t.slots)) {
		if i, ok := t.find(dst, probes); ok {
			return t.slots[i].pos - 1, true
		}
		t.grow(probes)
	}
	cur := idxSlot{dst: dst, pos: pos + 1}
	i := t.home(dst)
	var d uint64
	for {
		*probes++
		s := &t.slots[i]
		if s.pos == 0 {
			*s = cur
			t.count++
			return 0, false
		}
		if s.dst == dst { // only before the first steal: after it dst is known absent
			return s.pos - 1, true
		}
		if ed := t.dist(i, s.dst); ed < d {
			// Robin Hood: the resident is closer to home than the probe;
			// steal its slot and carry the resident on.
			cur, *s = *s, cur
			d = ed
		}
		i = (i + 1) & t.mask()
		d++
	}
}

func (t *dstIndex) grow(probes *uint64) {
	old := t.slots
	t.slots = make([]idxSlot, len(old)*2)
	t.count = 0
	for _, s := range old {
		if s.pos != 0 {
			t.insert(s.dst, s.pos-1, probes)
		}
	}
}

// set rewrites the position of an existing dst (a swap-with-last delete
// moved its array entry).
func (t *dstIndex) set(dst graph.NodeID, pos int32, probes *uint64) {
	if i, ok := t.find(dst, probes); ok {
		t.slots[i].pos = pos + 1
	}
}

// take removes dst and reports the position it mapped to: the walk that
// finds the slot carries on over the rest of the cluster, shifting each
// follower back one slot, which preserves the Robin Hood invariant.
func (t *dstIndex) take(dst graph.NodeID, probes *uint64) (int32, bool) {
	i, ok := t.find(dst, probes)
	if !ok {
		return 0, false
	}
	pos := t.slots[i].pos - 1
	for {
		j := (i + 1) & t.mask()
		next := t.slots[j]
		if next.pos == 0 || t.dist(j, next.dst) == 0 {
			t.slots[i] = idxSlot{}
			break
		}
		t.slots[i] = next
		i = j
	}
	t.count--
	return pos, true
}
