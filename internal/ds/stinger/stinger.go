// Package stinger implements the Stinger dynamic-graph data structure
// (Ediger et al., HPEC 2012) as described in the paper (Section III-A3,
// Fig 4): a per-vertex header array (vertex ID + degree) where each entry
// points to a linked list of fixed-capacity edge blocks (16 edges by
// default). Compared to AS, Stinger offers intra-node parallelism — the
// expensive duplicate search over a hub vertex's blocks runs lock-free and
// concurrently, and slot claiming locks only one block — at the cost of two
// scans per insertion (one to search for the target edge, one to find an
// empty slot) and pointer chasing across blocks during traversal.
package stinger

import (
	"sync"
	"sync/atomic"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// Name is the registry key.
const Name = "stinger"

// DefaultBlockSize matches the paper's implementation (16 edges/block).
const DefaultBlockSize = 16

func init() {
	ds.Register(Name, func(cfg ds.Config) ds.Graph {
		threads := cfg.Threads
		if threads <= 0 {
			threads = 1
		}
		bs := cfg.BlockSize
		if bs <= 0 {
			bs = DefaultBlockSize
		}
		hint := cfg.MaxNodesHint
		return ds.NewTwoCopy(cfg.Directed, func() ds.OneDir {
			return newStore(threads, bs, hint)
		})
	})
}

// block is one edge block. Slots fill sequentially: a writer stores the
// slot and then release-increments used, so lock-free readers that
// acquire-load used observe fully written slots. Weight rewrites of an
// existing slot take the block mutex.
type block struct {
	mu    sync.Mutex
	used  atomic.Int32
	next  atomic.Pointer[block]
	slots []graph.Neighbor // saga:guardedby mu (writes; readers acquire-load used)
}

// header is the per-vertex array entry: degree plus the block chain.
type header struct {
	mu     sync.Mutex // guards first-block allocation
	first  atomic.Pointer[block]
	tail   atomic.Pointer[block]
	degree atomic.Int32
}

type store struct {
	threads   int
	blockSize int
	heads     []header

	numEdges atomic.Int64

	profMu sync.Mutex
	prof   ds.UpdateProfile // saga:guardedby profMu
}

func newStore(threads, blockSize, hint int) *store {
	s := &store{threads: threads, blockSize: blockSize}
	if hint > 0 {
		s.heads = make([]header, 0, hint)
	}
	return s
}

// EnsureNodes implements ds.OneDir. Called between batches only, so the
// header slice may relocate safely.
func (s *store) EnsureNodes(n int) {
	if len(s.heads) >= n {
		return
	}
	if cap(s.heads) >= n {
		s.heads = s.heads[:n]
		return
	}
	grown := make([]header, n, n+n/2)
	for i := range s.heads {
		grown[i].first.Store(s.heads[i].first.Load())
		grown[i].tail.Store(s.heads[i].tail.Load())
		grown[i].degree.Store(s.heads[i].degree.Load())
	}
	s.heads = grown
}

// UpdateEdges implements ds.OneDir: shared-style multithreading, any worker
// may update any vertex.
func (s *store) UpdateEdges(edges []graph.Edge) {
	var conflicts, scans, inserted atomic.Uint64
	ds.ForEachShard(edges, s.threads, func(shard []graph.Edge) {
		var localScan, localIns, localConf uint64
		for _, e := range shard {
			sc, ins, conf := s.insert(e.Src, e.Dst, e.Weight)
			localScan += sc
			localConf += conf
			if ins {
				localIns++
			}
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

// findLockFree scans v's block chain for dst without locks. It returns the
// containing block (or nil) and the slots examined.
func (s *store) findLockFree(v graph.NodeID, dst graph.NodeID) (*block, uint64) {
	var steps uint64
	for blk := s.heads[v].first.Load(); blk != nil; blk = blk.next.Load() {
		n := int(blk.used.Load())
		for i := 0; i < n; i++ {
			steps++
			// saga:allow lockheld -- lock-free duplicate search: slots below the acquire-loaded used count are immutable absent deletions, and insert re-checks under the block lock.
			if blk.slots[i].ID == dst {
				return blk, steps
			}
		}
	}
	return nil, steps
}

// lockCounting acquires mu, counting a conflict when the fast path fails.
//
// saga:acquires 1
func lockCounting(mu *sync.Mutex, conflicts *uint64) {
	if !mu.TryLock() {
		*conflicts++
		mu.Lock()
	}
}

// insert performs the two-scan Stinger insertion. It reports scan steps,
// whether a new edge was created, and lock conflicts encountered.
func (s *store) insert(v, dst graph.NodeID, w graph.Weight) (scans uint64, insertedNew bool, conflicts uint64) {
	// Scan 1: duplicate search (lock-free, runs concurrently even for a
	// single hub vertex — Stinger's intra-node parallelism).
	if blk, steps := s.findLockFree(v, dst); blk != nil {
		scans = steps
		lockCounting(&blk.mu, &conflicts)
		n := int(blk.used.Load())
		for i := 0; i < n; i++ {
			if blk.slots[i].ID == dst {
				blk.slots[i].Weight = w
				blk.mu.Unlock()
				return scans, false, conflicts
			}
		}
		blk.mu.Unlock()
		// The slot disappeared only if another writer rewrote it,
		// which cannot happen without deletions; fall through to the
		// insertion path for safety.
	} else {
		scans = steps
	}

	hdr := &s.heads[v]
	for {
		tail := hdr.tail.Load()
		if tail == nil {
			// Allocate the first block under the header lock.
			lockCounting(&hdr.mu, &conflicts)
			if hdr.tail.Load() == nil {
				nb := &block{slots: make([]graph.Neighbor, s.blockSize)}
				hdr.first.Store(nb)
				hdr.tail.Store(nb)
			}
			hdr.mu.Unlock()
			continue
		}
		lockCounting(&tail.mu, &conflicts)
		if int(tail.used.Load()) == s.blockSize {
			// Scan 2 (partial): this tail filled up; extend the
			// chain and retry on the new tail.
			if tail.next.Load() == nil {
				nb := &block{slots: make([]graph.Neighbor, s.blockSize)}
				tail.next.Store(nb)
				hdr.tail.Store(nb)
			}
			tail.mu.Unlock()
			continue
		}
		// Scan 2: while holding the insertion block's lock, re-walk
		// the chain so a concurrent insert of the same (v,dst) cannot
		// slip in twice. This is the second scan the paper charges
		// Stinger for on every insertion.
		if blk, steps := s.findLockFree(v, dst); blk != nil {
			scans += steps
			if blk == tail {
				n := int(tail.used.Load())
				for i := 0; i < n; i++ {
					if tail.slots[i].ID == dst {
						tail.slots[i].Weight = w
						break
					}
				}
				tail.mu.Unlock()
			} else {
				tail.mu.Unlock()
				lockCounting(&blk.mu, &conflicts)
				n := int(blk.used.Load())
				for i := 0; i < n; i++ {
					if blk.slots[i].ID == dst {
						blk.slots[i].Weight = w
						break
					}
				}
				blk.mu.Unlock()
			}
			return scans, false, conflicts
		} else {
			scans += steps
		}
		n := int(tail.used.Load())
		if n == s.blockSize {
			tail.mu.Unlock()
			continue
		}
		tail.slots[n] = graph.Neighbor{ID: dst, Weight: w}
		tail.used.Store(int32(n + 1))
		tail.mu.Unlock()
		hdr.degree.Add(1)
		return scans, true, conflicts
	}
}

// Degree implements ds.OneDir via the header's degree counter — the
// degree-query path Fig 4 shows in the vertex array.
func (s *store) Degree(v graph.NodeID) int { return int(s.heads[v].degree.Load()) }

// Neighbors implements ds.OneDir by chasing the block chain.
func (s *store) Neighbors(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	for blk := s.heads[v].first.Load(); blk != nil; blk = blk.next.Load() {
		n := int(blk.used.Load())
		// saga:allow lockheld -- lock-free traversal: the acquire-load of used fences the slots written before the release-store.
		buf = append(buf, blk.slots[:n]...)
	}
	return buf
}

// NumEdges implements ds.OneDir.
func (s *store) NumEdges() int { return int(s.numEdges.Load()) }

// NumNodes implements ds.OneDir.
func (s *store) NumNodes() int { return len(s.heads) }

// UpdateProfile implements ds.Profiler.
func (s *store) UpdateProfile() ds.UpdateProfile {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	return s.prof
}

// ResetProfile implements ds.Profiler.
func (s *store) ResetProfile() {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	s.prof = ds.UpdateProfile{}
}

// BlockSize reports the configured edge-block capacity.
func (s *store) BlockSize() int { return s.blockSize }

// NumBlocks reports the block count of v's chain (for the architecture
// replayer and layout tests).
func (s *store) NumBlocks(v graph.NodeID) int {
	n := 0
	for blk := s.heads[v].first.Load(); blk != nil; blk = blk.next.Load() {
		n++
	}
	return n
}

// DeleteEdges implements ds.OneDirDeleter. STINGER supports deletions
// natively; this implementation serializes per-vertex removals on the
// header lock (coarser than insertion's block locks — deletion is the
// rare operation) and preserves the packed-chain invariant by moving the
// chain's final slot into the hole and trimming empty tail blocks.
func (s *store) DeleteEdges(edges []graph.Edge) {
	var removed, scans atomic.Uint64
	ds.ForEachShard(edges, s.threads, func(shard []graph.Edge) {
		var localRem, localScan uint64
		for _, e := range shard {
			sc, ok := s.deleteOne(e.Src, e.Dst)
			localScan += sc
			if ok {
				localRem++
			}
		}
		removed.Add(localRem)
		scans.Add(localScan)
	})
	s.numEdges.Add(-int64(removed.Load()))
	s.profMu.Lock()
	s.prof.ScanSteps += scans.Load()
	s.profMu.Unlock()
}

func (s *store) deleteOne(v, dst graph.NodeID) (scans uint64, ok bool) {
	hdr := &s.heads[v]
	hdr.mu.Lock()
	defer hdr.mu.Unlock()
	// Locate the victim slot.
	var victim *block
	victimIdx := -1
	var prevTail, tail *block
	for blk := hdr.first.Load(); blk != nil; blk = blk.next.Load() {
		n := int(blk.used.Load())
		if victimIdx < 0 {
			for i := 0; i < n; i++ {
				scans++
				// saga:allow lockheld -- victim search under hdr.mu: deletions serialize per vertex and never run concurrently with inserts to the same vertex's chain.
				if blk.slots[i].ID == dst {
					victim, victimIdx = blk, i
					break
				}
			}
		}
		if n > 0 {
			prevTail, tail = tail, blk
		}
	}
	if victimIdx < 0 {
		return scans, false
	}
	// Move the chain's last slot into the hole.
	last := int(tail.used.Load()) - 1
	victim.mu.Lock()
	if victim != tail {
		tail.mu.Lock()
	}
	// saga:allow lockheld -- tail.mu is held by the branch above unless victim == tail, in which case victim.mu is the same lock.
	victim.slots[victimIdx] = tail.slots[last]
	tail.used.Store(int32(last))
	if victim != tail {
		tail.mu.Unlock()
	}
	victim.mu.Unlock()
	// Trim empty blocks so only the final block is ever partial: the one
	// this delete emptied, and the empty block an insert leaves at the end
	// when it extends a full chain and then finds its edge already stored
	// by a concurrent same-batch duplicate (the slot moved above is the
	// last one of the last non-empty block).
	switch {
	case last == 0 && prevTail == nil:
		hdr.first.Store(nil)
		hdr.tail.Store(nil)
	case last == 0:
		prevTail.next.Store(nil)
		hdr.tail.Store(prevTail)
	case tail.next.Load() != nil:
		tail.next.Store(nil)
		hdr.tail.Store(tail)
	}
	hdr.degree.Add(-1)
	return scans, true
}
