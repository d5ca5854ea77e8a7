package archsim

import (
	"sagabench/internal/ds"
	"sagabench/internal/ds/hybrid"
	"sagabench/internal/graph"
)

// Hybrid shadow: the degree-adaptive three-tier layout. A small vertex's
// neighbors live inside its record (one cache line at a fixed stride — the
// tier that makes uniform streams cheap); medium vertices use a dense
// pooled array (contiguous scan); high-degree vertices add a per-vertex
// Robin Hood index from destination to array position, so hub inserts
// touch one index slot plus the array tail instead of scanning. Growth is
// the real store's own — array capacities from ds.CapFor, index
// tables from hybrid.IndexSlotsFor, the inline tier hybrid.InlineSlots
// wide — so the crossvalidate test can compare capacities slot for slot.
// Replay is insert-only, which on the real store means pools never have
// stock and every transition allocates; the shadow therefore allocates
// fresh spans too.

type shadowHybrid struct {
	alloc  *allocator
	chunks int

	inlineAt int // inline-tier capacity
	hashAt   int // array→hash promotion boundary (deg > hashAt)

	neigh   [][]graph.NodeID
	arrBase []uint64
	arrCap  []int // 0 = inline tier
	idxBase []uint64
	idxCap  []int // 0 = no index (inline or array tier)
}

// The record and slot sizes are the real structs' (64 and 4 bytes): the
// model strides over vertex records and probes index slots at the store's
// own pitch.
const (
	hybridRecBytes     = uint64(hybrid.RecordBytes)
	hybridInlineOffset = uint64(hybrid.InlineOffset)
	hybridIdxSlotBytes = uint64(hybrid.IndexSlotBytes)
)

func newShadowHybrid(alloc *allocator, chunks, hashAt int) *shadowHybrid {
	if chunks <= 0 {
		chunks = 1
	}
	if hashAt <= 0 {
		hashAt = hybrid.DefaultHashThreshold
	}
	inlineAt := hybrid.InlineSlots
	if hashAt <= inlineAt {
		inlineAt = hashAt - 1
	}
	return &shadowHybrid{alloc: alloc, chunks: chunks, inlineAt: inlineAt, hashAt: hashAt}
}

func (s *shadowHybrid) ensureNodes(n int) {
	for len(s.neigh) < n {
		s.neigh = append(s.neigh, nil)
		s.arrBase = append(s.arrBase, 0)
		s.arrCap = append(s.arrCap, 0)
		s.idxBase = append(s.idxBase, 0)
		s.idxCap = append(s.idxCap, 0)
	}
}

func (s *shadowHybrid) recordAddr(v graph.NodeID) uint64 {
	return headerBase + uint64(v)*hybridRecBytes
}

func (s *shadowHybrid) inlineAddr(v graph.NodeID, i int) uint64 {
	return s.recordAddr(v) + hybridInlineOffset + uint64(i)*adjSlotBytes
}

func (s *shadowHybrid) arrAddr(v graph.NodeID, i int) uint64 {
	return s.arrBase[v] + uint64(i)*adjSlotBytes
}

func (s *shadowHybrid) idxAddr(v graph.NodeID, dst graph.NodeID) uint64 {
	slot := hash64(uint64(dst)) % uint64(s.idxCap[v])
	return s.idxBase[v] + slot*hybridIdxSlotBytes
}

// growArr mirrors appendGrow: swap to the next size class, copying every
// entry.
func (s *shadowHybrid) growArr(m *Machine, thread int, v graph.NodeID) {
	newCap := ds.CapFor(s.arrCap[v] + 1)
	newBase := s.alloc.alloc(uint64(newCap) * adjSlotBytes)
	for i := range s.neigh[v] {
		m.Access(thread, s.arrAddr(v, i), false, 1)
		m.Access(thread, newBase+uint64(i)*adjSlotBytes, true, 1)
	}
	s.arrBase[v], s.arrCap[v] = newBase, newCap
}

// growIdx mirrors the hash tier's growth: a table of the next size class
// the entries need, refilled from the array, where the destinations are.
func (s *shadowHybrid) growIdx(m *Machine, thread int, v graph.NodeID) {
	s.idxCap[v] = hybrid.IndexSlotsFor(len(s.neigh[v]) + 1)
	s.idxBase[v] = s.alloc.alloc(uint64(s.idxCap[v]) * hybridIdxSlotBytes)
	for i, nb := range s.neigh[v] {
		m.Access(thread, s.arrAddr(v, i), false, 1)
		m.Access(thread, s.idxAddr(v, nb), true, 1)
	}
}

// promoteToArray moves the inline run into a fresh pooled array.
func (s *shadowHybrid) promoteToArray(m *Machine, thread int, v graph.NodeID, need int) {
	s.arrCap[v] = ds.CapFor(need)
	s.arrBase[v] = s.alloc.alloc(uint64(s.arrCap[v]) * adjSlotBytes)
	for i := range s.neigh[v] {
		m.Access(thread, s.inlineAddr(v, i), false, 1)
		m.Access(thread, s.arrAddr(v, i), true, 1)
	}
}

// promoteToHash builds the per-vertex index over the array (the array
// itself is untouched, like the real store).
func (s *shadowHybrid) promoteToHash(m *Machine, thread int, v graph.NodeID) {
	s.idxCap[v] = hybrid.IndexSlotsFor(len(s.neigh[v]) + 1)
	s.idxBase[v] = s.alloc.alloc(uint64(s.idxCap[v]) * hybridIdxSlotBytes)
	for i, nb := range s.neigh[v] {
		m.Access(thread, s.arrAddr(v, i), false, 1)
		m.Access(thread, s.idxAddr(v, nb), true, instrSlotScan)
	}
}

func (s *shadowHybrid) insert(m *Machine, thread int, src, dst graph.NodeID) {
	// Read the vertex record: tier discriminants and degree live there.
	m.Access(thread, s.recordAddr(src), false, instrHeader)
	adj := s.neigh[src]
	deg := len(adj)
	switch {
	case s.idxCap[src] > 0:
		// Hash tier: one index probe answers the duplicate question (a
		// hit reads the destination back from the array entry written
		// below; the readback behind a miss is not modelled).
		m.Access(thread, s.idxAddr(src, dst), false, instrSlotScan)
		for i, nb := range adj {
			if nb == dst {
				m.Access(thread, s.arrAddr(src, i), true, 1)
				return
			}
		}
		if deg == s.arrCap[src] {
			s.growArr(m, thread, src)
		}
		m.Access(thread, s.arrAddr(src, deg), true, instrInsert)
		if (deg+1)*10 > s.idxCap[src]*7 { // mirror insert's pre-grow check: past 0.7 load
			s.growIdx(m, thread, src)
		}
		m.Access(thread, s.idxAddr(src, dst), true, 1)
	case s.arrCap[src] > 0:
		// Array tier: bounded linear scan of the dense run.
		for i, nb := range adj {
			m.Access(thread, s.arrAddr(src, i), false, instrSlotScan)
			if nb == dst {
				m.Access(thread, s.arrAddr(src, i), true, 1)
				return
			}
		}
		if deg == s.arrCap[src] {
			s.growArr(m, thread, src)
		}
		m.Access(thread, s.arrAddr(src, deg), true, instrInsert)
		if deg+1 > s.hashAt {
			s.neigh[src] = append(adj, dst)
			s.promoteToHash(m, thread, src)
			m.Access(thread, s.recordAddr(src), true, 1)
			return
		}
	default:
		// Inline tier: the scan never leaves the record.
		for i, nb := range adj {
			m.Access(thread, s.inlineAddr(src, i), false, instrSlotScan)
			if nb == dst {
				m.Access(thread, s.inlineAddr(src, i), true, 1)
				return
			}
		}
		if deg < s.inlineAt {
			m.Access(thread, s.inlineAddr(src, deg), true, instrInsert)
			break
		}
		s.promoteToArray(m, thread, src, deg+1)
		m.Access(thread, s.arrAddr(src, deg), true, instrInsert)
		if deg+1 > s.hashAt {
			s.neigh[src] = append(adj, dst)
			s.promoteToHash(m, thread, src)
			m.Access(thread, s.recordAddr(src), true, 1)
			return
		}
	}
	s.neigh[src] = append(adj, dst)
	m.Access(thread, s.recordAddr(src), true, 1) // deg++
}

func (s *shadowHybrid) traverse(m *Machine, thread int, v graph.NodeID) []graph.NodeID {
	m.Access(thread, s.recordAddr(v), false, instrHeader)
	adj := s.neigh[v]
	if s.arrCap[v] == 0 {
		for i := range adj {
			m.Access(thread, s.inlineAddr(v, i), false, instrSlotScan)
		}
		return adj
	}
	for i := range adj {
		m.Access(thread, s.arrAddr(v, i), false, instrSlotScan)
	}
	return adj
}

func (s *shadowHybrid) degree(m *Machine, thread int, v graph.NodeID) {
	m.Access(thread, s.recordAddr(v), false, instrDegreeQry)
}

func (s *shadowHybrid) threadOf(src graph.NodeID) int { return int(src) % s.chunks }
