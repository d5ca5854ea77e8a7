package dah

import (
	"sync/atomic"

	"sagabench/internal/graph"
)

// edgeTable is a per-source open-addressing (linear probing) hash of
// destination → weight: the edge storage of Fig 5's high-degree table.
type edgeTable struct {
	slots  []etSlot
	count  int
	probes atomic.Uint64
}

type etSlot struct {
	used bool
	dst  graph.NodeID
	w    graph.Weight
}

const etInitialSize = 32
const etMaxLoad = 0.7

func newEdgeTable(capHint int) *edgeTable {
	size := etInitialSize
	for float64(capHint) > etMaxLoad*float64(size) {
		size *= 2
	}
	return &edgeTable{slots: make([]etSlot, size)}
}

func (t *edgeTable) mask() uint64 { return uint64(len(t.slots) - 1) }

// put inserts or overwrites dst, reporting whether a new entry was created.
func (t *edgeTable) put(dst graph.NodeID, w graph.Weight) bool {
	if float64(t.count+1) > etMaxLoad*float64(len(t.slots)) {
		t.grow()
	}
	i := hashNode(dst) & t.mask()
	var n uint64
	defer func() { t.probes.Add(n) }()
	for {
		n++
		s := &t.slots[i]
		if !s.used {
			*s = etSlot{used: true, dst: dst, w: w}
			t.count++
			return true
		}
		if s.dst == dst {
			s.w = w
			return false
		}
		i = (i + 1) & t.mask()
	}
}

func (t *edgeTable) grow() {
	old := t.slots
	t.slots = make([]etSlot, len(old)*2)
	t.count = 0
	for _, s := range old {
		if s.used {
			t.put(s.dst, s.w)
		}
	}
}

// forEach yields every stored edge in slot order.
func (t *edgeTable) forEach(yield func(dst graph.NodeID, w graph.Weight)) {
	for i := range t.slots {
		if t.slots[i].used {
			yield(t.slots[i].dst, t.slots[i].w)
		}
	}
}

// dirTable is the high-degree directory: an open-addressing hash keyed by
// source vertex whose values are the per-source edge tables. Probing it is
// the degree-query meta-operation DAH pays on every update and traversal.
type dirTable struct {
	slots  []dirSlot
	count  int
	probes atomic.Uint64
}

type dirSlot struct {
	used  bool
	src   graph.NodeID
	edges *edgeTable
}

const dirInitialSize = 64

func newDirTable() *dirTable {
	return &dirTable{slots: make([]dirSlot, dirInitialSize)}
}

func (t *dirTable) mask() uint64 { return uint64(len(t.slots) - 1) }

// get returns src's edge table, or nil when src is low-degree, charging
// its probes: the degree query of an update.
func (t *dirTable) get(src graph.NodeID) *edgeTable {
	et, n := t.lookup(src)
	t.probes.Add(n)
	return et
}

// lookup is get uncounted, reporting the slots it examined instead: a read
// is not update work.
func (t *dirTable) lookup(src graph.NodeID) (*edgeTable, uint64) {
	i := hashNode(src) & t.mask()
	for n := uint64(1); ; n++ {
		s := &t.slots[i]
		if !s.used {
			return nil, n
		}
		if s.src == src {
			return s.edges, n
		}
		i = (i + 1) & t.mask()
	}
}

// put registers src's edge table (src must be absent).
func (t *dirTable) put(src graph.NodeID, edges *edgeTable) {
	if float64(t.count+1) > etMaxLoad*float64(len(t.slots)) {
		t.grow()
	}
	i := hashNode(src) & t.mask()
	var n uint64
	defer func() { t.probes.Add(n) }()
	for {
		n++
		s := &t.slots[i]
		if !s.used {
			*s = dirSlot{used: true, src: src, edges: edges}
			t.count++
			return
		}
		i = (i + 1) & t.mask()
	}
}

func (t *dirTable) grow() {
	old := t.slots
	t.slots = make([]dirSlot, len(old)*2)
	t.count = 0
	for _, s := range old {
		if s.used {
			t.put(s.src, s.edges)
		}
	}
}

// forEach yields every (src, edge table) pair.
func (t *dirTable) forEach(yield func(src graph.NodeID, edges *edgeTable)) {
	for i := range t.slots {
		if t.slots[i].used {
			yield(t.slots[i].src, t.slots[i].edges)
		}
	}
}

// del removes dst via backward-shift deletion (the linear-probing
// analogue of the Robin Hood table's deleteAt), reporting whether the
// entry existed.
func (t *edgeTable) del(dst graph.NodeID) bool {
	var n uint64
	defer func() { t.probes.Add(n) }()
	mask := t.mask()
	i := hashNode(dst) & mask
	for {
		n++
		s := &t.slots[i]
		if !s.used {
			return false
		}
		if s.dst == dst {
			break
		}
		i = (i + 1) & mask
	}
	// Backward shift: close the hole by pulling forward any later entry
	// in the probe run whose home slot does not lie cyclically inside
	// (hole, entry].
	hole := i
	t.slots[hole] = etSlot{}
	j := hole
	for {
		j = (j + 1) & mask
		s := &t.slots[j]
		if !s.used {
			break
		}
		home := hashNode(s.dst) & mask
		// Entry at j may fill the hole iff home is outside (hole, j].
		inside := false
		if hole < j {
			inside = home > hole && home <= j
		} else {
			inside = home > hole || home <= j
		}
		if !inside {
			t.slots[hole] = *s
			*s = etSlot{}
			hole = j
		}
	}
	t.count--
	return true
}
