// Package graphone implements a log-structured dynamic graph in the
// spirit of GraphOne (Kumar & Huang, FAST'19) — one of the "novel data
// structures capable of parallelizing update and compute" the paper slates
// for a future SAGA-Bench version (Section II, footnote 1).
//
// Ingestion is O(1) per edge: updates append raw records to per-vertex
// delta logs without any duplicate search. At the end of each batch the
// store compacts: every dirty vertex merges its log into a contiguous
// compacted adjacency, deduplicating against existing edges with a single
// hash pass (so a hub receiving k edges pays O(deg + k) per batch instead
// of AS's O(k·deg) scan bill — log-structured designs are the antidote to
// the heavy-tail update pathology without DAH's traversal meta-ops).
// Between compactions the sealed adjacency is immutable, which is what
// lets systems of this family run compute concurrently with ingestion.
//
// Multithreading is chunked-style (lockless chunks, like AC/DAH).
//
// saga:lockless — chunk workers may only touch chunk-owned state.
// saga:paniccapture — worker goroutines must capture panics.
// (Both enforced by sagavet; see internal/analysis.)
package graphone

import (
	"sync"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// Name is the registry key.
const Name = "graphone"

func init() {
	ds.Register(Name, func(cfg ds.Config) ds.Graph {
		chunks := cfg.Chunks
		if chunks <= 0 {
			if cfg.Threads > 0 {
				chunks = cfg.Threads
			} else {
				chunks = 1
			}
		}
		hint := cfg.MaxNodesHint
		return ds.NewTwoCopy(cfg.Directed, func() ds.OneDir {
			return newStore(chunks, hint)
		})
	})
}

// record is one raw log entry.
type record struct {
	dst graph.NodeID
	w   graph.Weight
	del bool
}

// logRec is a staged (pre-seal) entry: it still carries its source vertex
// because staging appends to per-chunk logs, the only state ingestion
// touches while a concurrent compute phase reads the sealed adjacency.
type logRec struct {
	src graph.NodeID
	rec record
}

// indexThreshold is the compacted degree past which a vertex keeps a
// persistent neighbor index instead of rebuilding a hash pass per batch
// (GraphOne similarly special-cases high-degree vertices).
const indexThreshold = 64

type store struct {
	chunks int

	adj   [][]graph.Neighbor     // compacted, duplicate-free
	delta [][]record             // per-vertex unmerged log
	dirty [][]graph.NodeID       // saga:chunked — per-chunk vertices with pending deltas
	index []map[graph.NodeID]int // persistent dedup index (hubs only)

	// chunkLog holds staged records between stage and Seal. Only
	// staging writes it and only sealing drains it.
	chunkLog  [][]logRec // saga:chunked
	stagedMax graph.NodeID
	stagedAny bool

	numEdges int // saga:guardedby profMu

	profMu sync.Mutex
	prof   ds.UpdateProfile // saga:guardedby profMu
}

func newStore(chunks, hint int) *store {
	s := &store{chunks: chunks}
	s.dirty = make([][]graph.NodeID, chunks)
	s.chunkLog = make([][]logRec, chunks)
	// saga:allow lockheld -- constructor: s is not shared yet.
	s.prof.ChunkLoads = make([]uint64, chunks)
	if hint > 0 {
		s.adj = make([][]graph.Neighbor, 0, hint)
		s.delta = make([][]record, 0, hint)
	}
	return s
}

// EnsureNodes implements ds.OneDir.
func (s *store) EnsureNodes(n int) {
	for len(s.adj) < n {
		s.adj = append(s.adj, nil)
		s.delta = append(s.delta, nil)
		s.index = append(s.index, nil)
	}
}

// UpdateEdges implements ds.OneDir: phase 1 appends to the logs (no
// search), phase 2 compacts the dirty vertices — both chunk-parallel.
func (s *store) UpdateEdges(edges []graph.Edge) {
	s.stage(edges, false)
	s.Seal()
}

// DeleteEdges implements the optional deletion API: tombstone records flow
// through the same log + compaction path.
func (s *store) DeleteEdges(edges []graph.Edge) {
	s.stage(edges, true)
	s.Seal()
}

// stage is phase 1: append-only ingestion of insert or tombstone records
// into the per-chunk logs. It touches neither the compacted adjacency nor
// any vertex-indexed state.
func (s *store) stage(edges []graph.Edge, del bool) {
	loads := make([]uint64, s.chunks)
	maxes := make([]graph.NodeID, s.chunks)
	ds.GroupByChunk(edges, s.chunks, func(chunk int, bucket []graph.Edge) {
		max := graph.NodeID(0)
		for _, e := range bucket {
			s.chunkLog[chunk] = append(s.chunkLog[chunk], logRec{src: e.Src, rec: record{dst: e.Dst, w: e.Weight, del: del}})
			if e.Src > max {
				max = e.Src
			}
			if e.Dst > max {
				max = e.Dst
			}
		}
		loads[chunk] = uint64(len(bucket))
		maxes[chunk] = max
	})
	s.profMu.Lock()
	s.prof.EdgesIngested += uint64(len(edges))
	for c, l := range loads {
		s.prof.ChunkLoads[c] += l
		if maxes[c] > s.stagedMax {
			s.stagedMax = maxes[c]
		}
	}
	if len(edges) > 0 {
		s.stagedAny = true
	}
	s.profMu.Unlock()
}

// Seal is phase 2: drain the staged logs into per-vertex deltas and
// compact. Must run exclusively (no concurrent staging or reads).
func (s *store) Seal() {
	if !s.stagedAny {
		return
	}
	s.EnsureNodes(int(s.stagedMax) + 1)
	ds.ForEachChunk(s.chunks, func(c int) {
		if len(s.chunkLog[c]) == 0 {
			return
		}
		for _, lr := range s.chunkLog[c] {
			if len(s.delta[lr.src]) == 0 {
				s.dirty[c] = append(s.dirty[c], lr.src)
			}
			s.delta[lr.src] = append(s.delta[lr.src], lr.rec)
		}
		s.chunkLog[c] = s.chunkLog[c][:0]
	})
	s.stagedAny = false
	s.stagedMax = 0
	s.compact()
}

// compact merges every dirty vertex's log into its compacted adjacency.
// One hash pass indexes the existing neighbors; log records then apply in
// order (inserts dedup, re-inserts rewrite the weight, tombstones remove
// via swap-with-last).
func (s *store) compact() {
	inserted := make([]uint64, s.chunks)
	removed := make([]uint64, s.chunks)
	scans := make([]uint64, s.chunks)
	ds.ForEachChunk(s.chunks, func(c int) {
		if len(s.dirty[c]) == 0 {
			return
		}
		var ins, del uint64
		var scan uint64
		scratch := make(map[graph.NodeID]int)
		for _, v := range s.dirty[c] {
			adj := s.adj[v]
			// Hubs keep a persistent index so per-batch work is
			// O(log length), not O(degree).
			if s.index[v] == nil && len(adj) > indexThreshold {
				m := make(map[graph.NodeID]int, 2*len(adj))
				for i, nb := range adj {
					m[nb.ID] = i
				}
				scan += uint64(len(adj))
				s.index[v] = m
			}
			idx := s.index[v]
			if idx == nil {
				idx = scratch
				clear(idx)
				for i, nb := range adj {
					idx[nb.ID] = i
				}
				scan += uint64(len(adj))
			}
			for _, r := range s.delta[v] {
				scan++
				at, exists := idx[r.dst]
				switch {
				case r.del && exists:
					last := len(adj) - 1
					moved := adj[last]
					adj[at] = moved
					idx[moved.ID] = at
					adj = adj[:last]
					delete(idx, r.dst)
					del++
				case r.del:
					// deleting an absent edge: no-op
				case exists:
					adj[at].Weight = r.w
				default:
					adj = append(adj, graph.Neighbor{ID: r.dst, Weight: r.w})
					idx[r.dst] = len(adj) - 1
					ins++
				}
			}
			s.adj[v] = adj
			s.delta[v] = s.delta[v][:0]
		}
		s.dirty[c] = s.dirty[c][:0]
		inserted[c] = ins
		removed[c] = del
		scans[c] = scan
	})
	s.profMu.Lock()
	for c := 0; c < s.chunks; c++ {
		s.numEdges += int(inserted[c]) - int(removed[c])
		s.prof.Inserted += inserted[c]
		s.prof.ScanSteps += scans[c]
	}
	s.profMu.Unlock()
}

// Degree implements ds.OneDir.
func (s *store) Degree(v graph.NodeID) int { return len(s.adj[v]) }

// Neighbors implements ds.OneDir: the compacted adjacency is contiguous,
// so traversal matches AS's cheap sequential scan.
func (s *store) Neighbors(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	return append(buf, s.adj[v]...)
}

// NumEdges implements ds.OneDir.
func (s *store) NumEdges() int {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	return s.numEdges
}

// NumNodes implements ds.OneDir.
func (s *store) NumNodes() int { return len(s.adj) }

// UpdateProfile implements ds.Profiler.
func (s *store) UpdateProfile() ds.UpdateProfile {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	p := s.prof
	p.ChunkLoads = append([]uint64(nil), s.prof.ChunkLoads...)
	return p
}

// ResetProfile implements ds.Profiler.
func (s *store) ResetProfile() {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	s.prof = ds.UpdateProfile{ChunkLoads: make([]uint64, s.chunks)}
}

// Chunks reports the chunk count.
func (s *store) Chunks() int { return s.chunks }
