// Package dah implements DAH: degree-aware hashing (paper Section III-A4,
// Fig 5; after Iwabuchi et al.'s DegAwareRHH). Each chunk is a
// single-threaded, lockless pair of hash tables: a Robin Hood table keyed
// by source vertex stores the edges of low-degree vertices, and a
// high-degree directory (open-addressing) maps hub vertices to dedicated
// per-source open-addressing edge tables. Edge updates are amortized
// constant time, but every update and traversal pays degree-query
// meta-operations (directory probes) and low→high flushes, which the paper
// identifies as DAH's overhead on short-tailed graphs. Multithreading is
// chunked-style like AC, so a heavy-tailed batch funnels into the hub's
// chunk — the workload-imbalance pathology of Section VI-B.
//
// saga:lockless — chunk workers may only touch chunk-owned state
// (enforced by sagavet; see internal/analysis).
package dah

import (
	"sync"
	"sync/atomic"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// Name is the registry key.
const Name = "dah"

// DefaultFlushThreshold is the low→high degree boundary.
const DefaultFlushThreshold = 16

func init() {
	ds.Register(Name, func(cfg ds.Config) ds.Graph {
		ft := cfg.FlushThreshold
		if ft <= 0 {
			ft = DefaultFlushThreshold
		}
		return ds.NewTwoCopy(cfg.Directed, func() ds.OneDir {
			return newStore(cfg.Chunks, ft)
		})
	})
}

// chunkStore is the single-threaded per-chunk state. Vertex v belongs to
// chunk v mod chunks and is indexed locally by v div chunks.
type chunkStore struct {
	low  *rhTable
	dir  *dirTable
	deg  []int32       // distinct degree per local vertex
	meta atomic.Uint64 // degree-query + flush meta-operations
}

func (c *chunkStore) ensureLocal(n int) {
	for len(c.deg) < n {
		c.deg = append(c.deg, 0)
	}
}

type store struct {
	chunks    int
	flushAt   int
	numNodes  int
	numEdges  int           // saga:guardedby profMu
	chunkData []*chunkStore // saga:chunked

	profMu sync.Mutex
	prof   ds.UpdateProfile // saga:guardedby profMu
}

func newStore(chunks, flushAt int) *store {
	s := &store{chunks: chunks, flushAt: flushAt}
	s.chunkData = make([]*chunkStore, chunks)
	for i := range s.chunkData {
		s.chunkData[i] = &chunkStore{low: newRHTable(), dir: newDirTable()}
	}
	// saga:allow lockheld -- constructor: s is not shared yet.
	s.prof.ChunkLoads = make([]uint64, chunks)
	return s
}

// EnsureNodes implements ds.OneDir.
func (s *store) EnsureNodes(n int) {
	if n <= s.numNodes {
		return
	}
	s.numNodes = n
	for c, cs := range s.chunkData {
		// Local count: vertices v < n with v mod chunks == c.
		local := (n - c + s.chunks - 1) / s.chunks
		cs.ensureLocal(local)
	}
}

func (s *store) chunkOf(v graph.NodeID) (*chunkStore, int) {
	c := int(v) % s.chunks
	return s.chunkData[c], int(v) / s.chunks
}

// UpdateEdges implements ds.OneDir: chunked-style multithreading; each
// chunk's bucket is ingested by one worker with no locks.
func (s *store) UpdateEdges(edges []graph.Edge) {
	inserted := make([]uint64, s.chunks)
	loads := make([]uint64, s.chunks)
	ds.GroupByChunk(edges, s.chunks, func(chunk int, bucket []graph.Edge) {
		cs := s.chunkData[chunk]
		var ins uint64
		for _, e := range bucket {
			if s.insertInChunk(cs, e.Src, e.Dst, e.Weight) {
				ins++
			}
		}
		inserted[chunk] = ins
		loads[chunk] = uint64(len(bucket))
	})
	s.profMu.Lock()
	s.prof.EdgesIngested += uint64(len(edges))
	for c := 0; c < s.chunks; c++ {
		s.prof.Inserted += inserted[c]
		s.prof.ChunkLoads[c] += loads[c]
		s.numEdges += int(inserted[c])
	}
	s.profMu.Unlock()
}

// insertInChunk performs one degree-aware insertion; reports whether a new
// edge was created. It mutates only the chunk state passed as cs, so
// chunk workers may call it on their own bucket.
//
// saga:chunksafe
func (s *store) insertInChunk(cs *chunkStore, src, dst graph.NodeID, w graph.Weight) bool {
	local := int(src) / s.chunks
	// Meta-operation 1: query which table owns src before placement.
	cs.meta.Add(1)
	if et := cs.dir.get(src); et != nil {
		if et.put(dst, w) {
			cs.deg[local]++
			return true
		}
		return false
	}
	// Low-degree path: unique ingestion via Robin Hood search.
	if idx := cs.low.lookup(src, dst); idx >= 0 {
		cs.low.slots[idx].w = w
		return false
	}
	cs.low.insert(src, dst, w)
	cs.deg[local]++
	// Meta-operation 2: flush src's edges to the high-degree table once
	// its degree crosses the threshold.
	if int(cs.deg[local]) > s.flushAt {
		moved := cs.low.removeAll(src)
		et := newEdgeTable(len(moved) * 2)
		for _, nb := range moved {
			et.put(nb.ID, nb.Weight)
		}
		cs.dir.put(src, et)
		cs.meta.Add(uint64(len(moved)))
	}
	return true
}

// Degree implements ds.OneDir.
func (s *store) Degree(v graph.NodeID) int {
	cs, local := s.chunkOf(v)
	if local >= len(cs.deg) {
		return 0
	}
	return int(cs.deg[local])
}

// forEach yields v's edges from whichever table owns it. Traversal pays the
// same directory probe as an update to decide which table to walk, but a
// read is not update work: neither the probe nor the walk is counted.
func (s *store) forEach(v graph.NodeID, yield func(dst graph.NodeID, w graph.Weight)) {
	cs, local := s.chunkOf(v)
	if local >= len(cs.deg) {
		return
	}
	if et, _ := cs.dir.lookup(v); et != nil {
		et.forEach(yield)
		return
	}
	cs.low.forEach(v, yield)
}

// NumEdges implements ds.OneDir.
func (s *store) NumEdges() int {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	return s.numEdges
}

// NumNodes implements ds.OneDir.
func (s *store) NumNodes() int { return s.numNodes }

// TakeProfile implements ds.OneDir; hash probes across all tables are
// charged as scan steps and directory/flush work as meta-operations.
func (s *store) TakeProfile(into *ds.UpdateProfile) {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	for _, cs := range s.chunkData {
		into.MetaOps += cs.meta.Swap(0)
		into.ScanSteps += cs.low.probes.Swap(0) + cs.dir.probes.Swap(0)
		cs.dir.forEach(func(_ graph.NodeID, et *edgeTable) {
			into.ScanSteps += et.probes.Swap(0)
		})
	}
	s.prof.MoveTo(into)
}

// DeleteEdges implements ds.OneDir: the owning chunk routes the
// removal to whichever table holds the source (one more degree-query
// meta-operation) and deletes with backward shifting. Flushed vertices
// are not demoted back to the low-degree table.
func (s *store) DeleteEdges(edges []graph.Edge) {
	removed := make([]uint64, s.chunks)
	ds.GroupByChunk(edges, s.chunks, func(chunk int, bucket []graph.Edge) {
		cs := s.chunkData[chunk]
		var rem uint64
		for _, e := range bucket {
			local := int(e.Src) / s.chunks
			cs.meta.Add(1)
			if et := cs.dir.get(e.Src); et != nil {
				if et.del(e.Dst) {
					cs.deg[local]--
					rem++
				}
				continue
			}
			if idx := cs.low.lookup(e.Src, e.Dst); idx >= 0 {
				cs.low.deleteAt(uint64(idx))
				cs.deg[local]--
				rem++
			}
		}
		removed[chunk] = rem
	})
	s.profMu.Lock()
	for c := 0; c < s.chunks; c++ {
		s.numEdges -= int(removed[c])
	}
	s.profMu.Unlock()
}

// Chunks reports the chunk count.
func (s *store) Chunks() int { return s.chunks }

// IsHighDegree reports whether v has been flushed to the high-degree table
// (for layout tests and the architecture replayer).
func (s *store) IsHighDegree(v graph.NodeID) bool {
	cs, _ := s.chunkOf(v)
	et, _ := cs.dir.lookup(v)
	return et != nil
}

// LowTableStats reports per-chunk Robin Hood occupancy (count, capacity);
// layout tests use it.
func (s *store) LowTableStats() (counts, caps []int) {
	for _, cs := range s.chunkData {
		counts = append(counts, cs.low.count)
		caps = append(caps, len(cs.low.slots))
	}
	return
}
