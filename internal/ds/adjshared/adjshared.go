// Package adjshared implements AS: an adjacency list with shared-style
// multithreading (paper Section III-A1). The topology is an array of
// per-vertex neighbor vectors. Any update worker may ingest any edge; a
// worker locks the source vertex's vector, linearly scans it for the target
// edge, and appends when the search is negative. The per-vertex lock means
// there is no intra-node parallelism: concurrent updates to one hub vertex
// serialize, which is exactly the contention pathology the paper observes
// for heavy-tailed graphs.
package adjshared

import (
	"sync"
	"sync/atomic"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// Name is the registry key.
const Name = "adjshared"

func init() {
	ds.Register(Name, func(cfg ds.Config) ds.Graph {
		return ds.NewTwoCopy(cfg.Directed, func() ds.OneDir {
			return newStore(cfg.Threads, cfg.MaxNodesHint)
		})
	})
}

// store is the single-direction AS store.
type store struct {
	threads int
	cuts    []int // the batch's shared-style split, reused

	adj   [][]graph.Neighbor // saga:guardedby locks[$i]
	locks []sync.Mutex

	numEdges atomic.Int64

	// rewritten holds, per update worker, the sources whose run had an
	// entry overwritten with a new weight or removed since the last
	// TakeRewritten; nil until the first call starts the record-keeping.
	// Worker w appends to its own list only.
	rewritten [][]graph.NodeID
	taken     uint64

	profMu sync.Mutex
	prof   ds.UpdateProfile // saga:guardedby profMu
}

func newStore(threads, hint int) *store {
	s := &store{threads: threads}
	if hint > 0 {
		s.adj = make([][]graph.Neighbor, 0, hint)
		s.locks = make([]sync.Mutex, 0, hint)
	}
	return s
}

// EnsureNodes implements ds.OneDir.
func (s *store) EnsureNodes(n int) {
	for len(s.adj) < n {
		s.adj = append(s.adj, nil)
	}
	// Mutexes must not be copied once used, so the lock array never
	// relocates: it is extended within its capacity — the constructor's
	// MaxNodesHint allocation first — and re-allocated, unlocked and
	// uncopied, only while no workers are running (EnsureNodes is called
	// between batches).
	if len(s.locks) < n {
		if n <= cap(s.locks) {
			s.locks = s.locks[:n]
		} else {
			s.locks = make([]sync.Mutex, n, n+n/2)
		}
	}
}

// UpdateEdges implements ds.OneDir. Workers share the whole vertex space.
func (s *store) UpdateEdges(edges []graph.Edge) {
	var conflicts, scans, inserted atomic.Uint64
	s.cuts = graph.UniformCuts(s.cuts, len(edges), s.threads)
	graph.ParallelRanges(s.cuts, func(w, lo, hi int) {
		var localScan, localIns, localConf uint64
		for _, e := range edges[lo:hi] {
			mu := &s.locks[e.Src]
			if !mu.TryLock() {
				localConf++
				mu.Lock()
			}
			vec := s.adj[e.Src]
			found := false
			for i := range vec {
				localScan++
				if vec[i].ID == e.Dst {
					if s.rewritten != nil && vec[i].Weight != e.Weight {
						s.rewritten[w] = append(s.rewritten[w], e.Src)
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
			mu.Unlock()
		}
		conflicts.Add(localConf)
		scans.Add(localScan)
		inserted.Add(localIns)
	})
	s.numEdges.Add(int64(inserted.Load()))
	s.profMu.Lock()
	s.prof.EdgesIngested += uint64(len(edges))
	s.prof.Inserted += inserted.Load()
	s.prof.ScanSteps += scans.Load()
	s.prof.LockConflicts += conflicts.Load()
	s.profMu.Unlock()
}

// Degree implements ds.OneDir.
func (s *store) Degree(v graph.NodeID) int {
	if int(v) >= len(s.adj) {
		return 0
	}
	// saga:allow lockheld -- read-phase query: two-copy phase separation means no writer is active.
	return len(s.adj[v])
}

// NumEdges implements ds.OneDir.
func (s *store) NumEdges() int { return int(s.numEdges.Load()) }

// NumNodes implements ds.OneDir.
func (s *store) NumNodes() int { return len(s.adj) }

// TakeProfile implements ds.OneDir.
func (s *store) TakeProfile(into *ds.UpdateProfile) {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	s.prof.MoveTo(into)
}

// VectorCap reports the capacity of v's neighbor vector; the architecture
// replayer uses it to model reallocation traffic.
// saga:allow lockheld -- read-phase layout probe: runs between batches only.
func (s *store) VectorCap(v graph.NodeID) int { return cap(s.adj[v]) }

// DeleteEdges implements ds.OneDir: lock the source vector, scan
// for the record, and remove it by swapping in the last element.
func (s *store) DeleteEdges(edges []graph.Edge) {
	var removed, scans atomic.Uint64
	s.cuts = graph.UniformCuts(s.cuts, len(edges), s.threads)
	graph.ParallelRanges(s.cuts, func(w, lo, hi int) {
		var localRem, localScan uint64
		for _, e := range edges[lo:hi] {
			mu := &s.locks[e.Src]
			mu.Lock()
			vec := s.adj[e.Src]
			for i := range vec {
				localScan++
				if vec[i].ID == e.Dst {
					vec[i] = vec[len(vec)-1]
					s.adj[e.Src] = vec[:len(vec)-1]
					localRem++
					if s.rewritten != nil {
						s.rewritten[w] = append(s.rewritten[w], e.Src)
					}
					break
				}
			}
			mu.Unlock()
		}
		removed.Add(localRem)
		scans.Add(localScan)
	})
	s.numEdges.Add(-int64(removed.Load()))
	s.profMu.Lock()
	s.prof.ScanSteps += scans.Load()
	s.profMu.Unlock()
}

// TakeRewritten implements ds.RewriteReporter. An insert appends at the
// run's tail and a delete swaps in its last entry, so only an overwrite
// with a new weight and a delete change what a run held.
func (s *store) TakeRewritten(mark func(graph.NodeID)) uint64 {
	if s.rewritten == nil {
		s.rewritten = make([][]graph.NodeID, s.threads)
	}
	for w, vs := range s.rewritten {
		for _, v := range vs {
			mark(v)
		}
		s.rewritten[w] = vs[:0]
	}
	s.taken++
	return s.taken
}
