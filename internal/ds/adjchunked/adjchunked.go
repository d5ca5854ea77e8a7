// Package adjchunked implements AC: an adjacency list with chunked-style
// multithreading (paper Section III-A2, Fig 3). The vertex space is
// partitioned into chunks; each chunk is a single-threaded data structure
// owned by exactly one worker during a batch, so intra-chunk ingestion
// needs no locks. The intra-chunk operation is the same as AS: linear scan
// of the source vertex's vector, then append on a negative search. Update
// parallelism comes entirely from processing chunks concurrently, which
// trades the lock contention of AS for workload imbalance when one chunk
// owns a hub vertex.
//
// saga:lockless — chunk workers may only touch chunk-owned state
// (enforced by sagavet; see internal/analysis).
package adjchunked

import (
	"sync"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// Name is the registry key.
const Name = "adjchunked"

func init() {
	ds.Register(Name, func(cfg ds.Config) ds.Graph {
		return ds.NewTwoCopy(cfg.Directed, func() ds.OneDir {
			return newStore(cfg.Chunks, cfg.MaxNodesHint)
		})
	})
}

type store struct {
	chunks int
	adj    [][]graph.Neighbor

	// rewritten holds, per chunk, the sources whose run had an entry
	// overwritten with a new weight or removed since the last
	// TakeRewritten; nil until the first call starts the record-keeping.
	rewritten [][]graph.NodeID // saga:chunked
	taken     uint64

	numEdges int // saga:guardedby profMu

	profMu sync.Mutex
	prof   ds.UpdateProfile // saga:guardedby profMu
}

func newStore(chunks, hint int) *store {
	s := &store{chunks: chunks}
	// saga:allow lockheld -- constructor: s is not shared yet.
	s.prof.ChunkLoads = make([]uint64, chunks)
	if hint > 0 {
		s.adj = make([][]graph.Neighbor, 0, hint)
	}
	return s
}

// EnsureNodes implements ds.OneDir.
func (s *store) EnsureNodes(n int) {
	for len(s.adj) < n {
		s.adj = append(s.adj, nil)
	}
}

// UpdateEdges implements ds.OneDir.
func (s *store) UpdateEdges(edges []graph.Edge) {
	scans := make([]uint64, s.chunks)
	inserted := make([]uint64, s.chunks)
	loads := make([]uint64, s.chunks)
	ds.GroupByChunk(edges, s.chunks, func(chunk int, bucket []graph.Edge) {
		var localScan, localIns uint64
		for _, e := range bucket {
			vec := s.adj[e.Src]
			found := false
			for i := range vec {
				localScan++
				if vec[i].ID == e.Dst {
					if s.rewritten != nil && vec[i].Weight != e.Weight {
						s.rewritten[chunk] = append(s.rewritten[chunk], e.Src)
					}
					vec[i].Weight = e.Weight
					found = true
					break
				}
			}
			if !found {
				s.adj[e.Src] = append(vec, graph.Neighbor{ID: e.Dst, Weight: e.Weight})
				localIns++
			}
		}
		scans[chunk] = localScan
		inserted[chunk] = localIns
		loads[chunk] = uint64(len(bucket))
	})
	s.profMu.Lock()
	s.prof.EdgesIngested += uint64(len(edges))
	for c := 0; c < s.chunks; c++ {
		s.prof.ScanSteps += scans[c]
		s.prof.Inserted += inserted[c]
		s.prof.ChunkLoads[c] += loads[c]
		s.numEdges += int(inserted[c])
	}
	s.profMu.Unlock()
}

// Degree implements ds.OneDir.
func (s *store) Degree(v graph.NodeID) int {
	if int(v) >= len(s.adj) {
		return 0
	}
	return len(s.adj[v])
}

// NumEdges implements ds.OneDir.
func (s *store) NumEdges() int {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	return s.numEdges
}

// NumNodes implements ds.OneDir.
func (s *store) NumNodes() int { return len(s.adj) }

// TakeProfile implements ds.OneDir.
func (s *store) TakeProfile(into *ds.UpdateProfile) {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	s.prof.MoveTo(into)
}

// Chunks reports the chunk count (for the architecture replayer).
func (s *store) Chunks() int { return s.chunks }

// DeleteEdges implements ds.OneDir: the owning chunk scans the
// source vector and removes the record by swapping in the last element.
func (s *store) DeleteEdges(edges []graph.Edge) {
	removed := make([]uint64, s.chunks)
	scans := make([]uint64, s.chunks)
	ds.GroupByChunk(edges, s.chunks, func(chunk int, bucket []graph.Edge) {
		var localRem, localScan uint64
		for _, e := range bucket {
			vec := s.adj[e.Src]
			for i := range vec {
				localScan++
				if vec[i].ID == e.Dst {
					vec[i] = vec[len(vec)-1]
					s.adj[e.Src] = vec[:len(vec)-1]
					localRem++
					if s.rewritten != nil {
						s.rewritten[chunk] = append(s.rewritten[chunk], e.Src)
					}
					break
				}
			}
		}
		removed[chunk] = localRem
		scans[chunk] = localScan
	})
	s.profMu.Lock()
	for c := 0; c < s.chunks; c++ {
		s.numEdges -= int(removed[c])
		s.prof.ScanSteps += scans[c]
	}
	s.profMu.Unlock()
}

// TakeRewritten implements ds.RewriteReporter, as AS does.
func (s *store) TakeRewritten(mark func(graph.NodeID)) uint64 {
	if s.rewritten == nil {
		s.rewritten = make([][]graph.NodeID, s.chunks)
	}
	for c, vs := range s.rewritten {
		for _, v := range vs {
			mark(v)
		}
		s.rewritten[c] = vs[:0]
	}
	s.taken++
	return s.taken
}
