package dah

import (
	"sync/atomic"

	"sagabench/internal/graph"
)

// rhTable is a Robin Hood open-addressing hash table holding one entry per
// edge, keyed by source vertex (Fig 5's low-degree table). Entries of one
// source cluster around the source's home slot, so both duplicate search
// and neighbor traversal probe a short run bounded by the Robin Hood
// invariant: probing may stop at an empty slot or at an entry whose own
// probe distance is smaller than the query's current distance.
type rhTable struct {
	slots []rhSlot
	count int
	// probes counts the slot examinations of updates (reads go
	// uncounted); the profiler charges them as hash scan work.
	probes atomic.Uint64
}

type rhSlot struct {
	used bool
	src  graph.NodeID
	dst  graph.NodeID
	w    graph.Weight
}

const rhInitialSize = 256 // power of two
const rhMaxLoad = 0.7

func newRHTable() *rhTable {
	return &rhTable{slots: make([]rhSlot, rhInitialSize)}
}

func hashNode(v graph.NodeID) uint64 {
	x := uint64(v) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

func (t *rhTable) mask() uint64 { return uint64(len(t.slots) - 1) }

func (t *rhTable) home(src graph.NodeID) uint64 { return hashNode(src) & t.mask() }

func (t *rhTable) dist(slot uint64, src graph.NodeID) uint64 {
	return (slot - t.home(src)) & t.mask()
}

// lookup returns the slot index holding (src,dst), or -1.
func (t *rhTable) lookup(src, dst graph.NodeID) int {
	i := t.home(src)
	var d, n uint64
	defer func() { t.probes.Add(n) }()
	for {
		n++
		s := &t.slots[i]
		if !s.used {
			return -1
		}
		if t.dist(i, s.src) < d {
			return -1
		}
		if s.src == src && s.dst == dst {
			return int(i)
		}
		i = (i + 1) & t.mask()
		d++
	}
}

// insert adds (src,dst,w); the caller has already established the pair is
// absent. Grows at rhMaxLoad.
func (t *rhTable) insert(src, dst graph.NodeID, w graph.Weight) {
	if float64(t.count+1) > rhMaxLoad*float64(len(t.slots)) {
		t.grow()
	}
	cur := rhSlot{used: true, src: src, dst: dst, w: w}
	i := t.home(cur.src)
	var d, n uint64
	defer func() { t.probes.Add(n) }()
	for {
		n++
		s := &t.slots[i]
		if !s.used {
			*s = cur
			t.count++
			return
		}
		if ed := t.dist(i, s.src); ed < d {
			// Robin Hood: the resident is closer to home than the
			// probe; steal its slot and relocate it.
			cur, *s = *s, cur
			d = ed
		}
		i = (i + 1) & t.mask()
		d++
	}
}

func (t *rhTable) grow() {
	old := t.slots
	t.slots = make([]rhSlot, len(old)*2)
	t.count = 0
	for _, s := range old {
		if s.used {
			t.insert(s.src, s.dst, s.w)
		}
	}
}

// forEach yields every edge of src, uncounted: a read is not update work.
// The yield function must not mutate the table.
func (t *rhTable) forEach(src graph.NodeID, yield func(dst graph.NodeID, w graph.Weight)) {
	i := t.home(src)
	var d uint64
	for {
		s := &t.slots[i]
		if !s.used {
			return
		}
		if t.dist(i, s.src) < d {
			return
		}
		if s.src == src {
			yield(s.dst, s.w)
		}
		i = (i + 1) & t.mask()
		d++
	}
}

// removeAll deletes every edge of src (used by the low→high flush),
// returning the removed edges. Deletion uses backward shifting to preserve
// the Robin Hood invariant.
func (t *rhTable) removeAll(src graph.NodeID) []graph.Neighbor {
	var out []graph.Neighbor
	for {
		idx := t.firstOf(src)
		if idx < 0 {
			return out
		}
		out = append(out, graph.Neighbor{ID: t.slots[idx].dst, Weight: t.slots[idx].w})
		t.deleteAt(uint64(idx))
	}
}

func (t *rhTable) firstOf(src graph.NodeID) int {
	i := t.home(src)
	var d, n uint64
	defer func() { t.probes.Add(n) }()
	for {
		n++
		s := &t.slots[i]
		if !s.used {
			return -1
		}
		if t.dist(i, s.src) < d {
			return -1
		}
		if s.src == src {
			return int(i)
		}
		i = (i + 1) & t.mask()
		d++
	}
}

func (t *rhTable) deleteAt(i uint64) {
	for {
		j := (i + 1) & t.mask()
		if !t.slots[j].used || t.dist(j, t.slots[j].src) == 0 {
			t.slots[i] = rhSlot{}
			break
		}
		t.slots[i] = t.slots[j]
		i = j
	}
	t.count--
}

// maxProbeOf reports the probe distance needed to enumerate src's cluster;
// layout tests use it to check the Robin Hood invariant keeps clusters
// short.
func (t *rhTable) maxProbeOf(src graph.NodeID) int {
	i := t.home(src)
	var d uint64
	max := 0
	for {
		s := &t.slots[i]
		if !s.used || t.dist(i, s.src) < d {
			return max
		}
		if s.src == src {
			max = int(d) + 1
		}
		i = (i + 1) & t.mask()
		d++
	}
}
