package main

import (
	"math"

	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// stream is the load generator: a seed-deterministic sequence of mixed
// batches for one workload. Edges come from gen.Spec one chunk at a time —
// a Generate call yields chunkEdges edges (or one batch, if that is larger)
// and batches are cut from it — so the edge list of the whole stream is
// never materialised, and a 1000-edge batch does not pay for (or litter the
// heap with) a fresh 2^18-entry sampling table of its own. The pipeline
// under test sees only what next returns.
//
// Sliding-window workloads (window > 0) expire the batch added `window`
// batches earlier: every edge of that batch that no later batch re-added is
// deleted, carrying the weight the graph holds for it at delete time (the
// crosscheck stream rule — an INC engine's trimming reads that weight).
// The live-edge table that rule needs doubles as the final-state oracle.
type stream struct {
	spec   func(edges int) gen.Spec
	seed   int64
	window int
	// chunkEdges is how many edges one Generate call produces.
	chunkEdges int

	idx    int                     // batches produced so far
	chunks int                     // Generate calls so far
	chunk  []graph.Edge            // generated, not yet handed out
	ring   []graph.Batch           // the last `window` add-batches, oldest first
	live   *liveTable              // nil for insert-only streams
	dels   graph.Batch             // scratch, reused across batches
	first  map[uint64]graph.Weight // scratch of unifyDuplicates

	fnv     uint64 // running FNV-1a over every edge handed out
	updates int    // adds + deletes handed out
}

func newStream(w *workload, sc scale, seed int64) *stream {
	s := &stream{spec: func(n int) gen.Spec { return w.spec(sc.nodes, n) }, seed: seed, window: w.window, fnv: fnvOffset, chunkEdges: sc.edges(chunkEdges)}
	if w.window > 0 {
		s.live = newLiveTable((w.window + 1) * sc.edges(w.batch))
	}
	return s
}

// chunkEdges is the full-scale chunk size.
const chunkEdges = 100_000

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// next produces the following batch of n fresh adds (plus the expiring
// deletes of a sliding-window stream).
func (s *stream) next(n int) (adds, dels graph.Batch) {
	if len(s.chunk) < n {
		size := s.chunkEdges
		if size < n {
			size = n
		}
		// Generate(seed) also consumes seed+1 for its shuffle, so chunk
		// seeds are spaced by two; the shift keeps the chunk sequences of
		// neighbouring -seed values disjoint. Generate shuffles, so every
		// cut of a chunk is a uniform sample of it.
		s.chunk = s.spec(size).Generate(s.seed<<24 + 2*int64(s.chunks))
		s.chunks++
	}
	adds, s.chunk = s.chunk[:n:n], s.chunk[n:]
	s.unifyDuplicates(adds)
	if s.live != nil {
		// Adds before expiry: an edge re-added by this very batch is
		// refreshed, not deleted — the pipeline applies a batch's deletes
		// after its adds.
		for _, e := range adds {
			s.live.put(e.Src, e.Dst, e.Weight, int32(s.idx))
		}
		dels = s.expire()
		s.ring = append(s.ring, adds)
	}
	s.idx++
	s.hash(adds)
	s.hash(dels)
	s.updates += len(adds) + len(dels)
	return adds, dels
}

// unifyDuplicates gives every repeat of an edge within one batch the weight
// of its first occurrence. The structures ingest a batch in parallel, so
// which of two different weights survives would otherwise be a race (the
// repo-wide stream convention; see ds.Overwritten).
func (s *stream) unifyDuplicates(b graph.Batch) {
	if s.first == nil {
		s.first = make(map[uint64]graph.Weight, len(b))
	}
	clear(s.first)
	for i, e := range b {
		k := liveKey(e.Src, e.Dst)
		if w, dup := s.first[k]; dup {
			b[i].Weight = w
		} else {
			s.first[k] = e.Weight
		}
	}
}

// expire pops the batch that leaves the window and returns its still-live
// edges as deletions (valid until the next call).
func (s *stream) expire() graph.Batch {
	s.dels = s.dels[:0]
	if len(s.ring) < s.window {
		return nil
	}
	old, born := s.ring[0], int32(s.idx-s.window)
	s.ring = s.ring[1:]
	for _, e := range old {
		if w, b, ok := s.live.get(e.Src, e.Dst); ok && b == born {
			s.dels = append(s.dels, graph.Edge{Src: e.Src, Dst: e.Dst, Weight: w})
			s.live.remove(e.Src, e.Dst)
		}
	}
	return s.dels
}

func (s *stream) hash(b graph.Batch) {
	s.fnv = (hashEdges(s.fnv, b) ^ uint64(len(b))) * fnvPrime
}

// hashEdges folds the edges into a running FNV-1a style hash, a word at a time.
func hashEdges(h uint64, edges []graph.Edge) uint64 {
	for _, e := range edges {
		h = (h ^ uint64(e.Src)) * fnvPrime
		h = (h ^ uint64(e.Dst)) * fnvPrime
		h = (h ^ uint64(math.Float32bits(float32(e.Weight)))) * fnvPrime
	}
	return h
}

// liveTable maps (src,dst) to the weight the graph currently stores for
// the edge and the batch that last wrote it: open addressing with linear
// probing and backward-shift deletion, sized once. A Go map would do the
// same job at ~4x the memory, and that memory would sit inside
// heap_live_mb next to the system under test.
type liveTable struct {
	keys []uint64 // src<<32|dst, plus one so that zero means empty
	vals []liveVal
	mask uint64
	n    int
}

type liveVal struct {
	w    graph.Weight
	born int32
}

func newLiveTable(maxLive int) *liveTable {
	size := 1024
	for size < 2*maxLive {
		size *= 2
	}
	return &liveTable{keys: make([]uint64, size), vals: make([]liveVal, size), mask: uint64(size - 1)}
}

func liveKey(src, dst graph.NodeID) uint64 { return uint64(src)<<32 | uint64(dst) + 1 }

func (t *liveTable) slot(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15 >> 20) & t.mask }

func (t *liveTable) find(k uint64) (uint64, bool) {
	i := t.slot(k)
	for t.keys[i] != 0 {
		if t.keys[i] == k {
			return i, true
		}
		i = (i + 1) & t.mask
	}
	return i, false
}

func (t *liveTable) put(src, dst graph.NodeID, w graph.Weight, born int32) {
	k := liveKey(src, dst)
	i, ok := t.find(k)
	if !ok {
		if 2*(t.n+1) > len(t.keys) {
			panic("benchmark: live-edge table over half full; the window outgrew its sizing")
		}
		t.keys[i] = k
		t.n++
	}
	t.vals[i] = liveVal{w, born}
}

func (t *liveTable) get(src, dst graph.NodeID) (graph.Weight, int32, bool) {
	i, ok := t.find(liveKey(src, dst))
	if !ok {
		return 0, 0, false
	}
	return t.vals[i].w, t.vals[i].born, true
}

func (t *liveTable) remove(src, dst graph.NodeID) {
	i, ok := t.find(liveKey(src, dst))
	if !ok {
		return
	}
	t.n--
	// Backward shift: pull every displaced follower into the hole so
	// probe chains stay unbroken without tombstones.
	for {
		t.keys[i] = 0
		j := i
		for {
			j = (j + 1) & t.mask
			if t.keys[j] == 0 {
				return
			}
			home := t.slot(t.keys[j])
			// Move j into the hole unless its home lies cyclically in (i, j].
			if (j > i && (home <= i || home > j)) || (j < i && home <= i && home > j) {
				break
			}
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		i = j
	}
}

// edges lists the table's contents (unordered).
func (t *liveTable) edges() graph.Batch {
	out := make(graph.Batch, 0, t.n)
	for i, k := range t.keys {
		if k != 0 {
			k--
			out = append(out, graph.Edge{Src: graph.NodeID(k >> 32), Dst: graph.NodeID(k & math.MaxUint32), Weight: t.vals[i].w})
		}
	}
	return out
}
