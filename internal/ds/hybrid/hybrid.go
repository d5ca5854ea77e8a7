// Package hybrid implements the degree-adaptive hybrid structure
// (GraphTango-style; see DESIGN.md, "Hybrid's hash tier"): each vertex's
// adjacency lives in one of three tiers chosen by its degree. The vertex
// record is one 64-byte cache line — degree, array capacity, five inline
// neighbors, the array and index pointers — and the records sit in one
// page-aligned slice, so reading a vertex touches one line. Small degrees
// sit inline in the record (zero pointer chases); medium degrees use a
// dense pooled edge array (linear scan, contiguous traversal) whose
// capacity is one of four size classes per octave; high degrees keep the
// same dense array plus a per-vertex Robin Hood index from destination to
// array position, making lookup, insert, overwrite and delete O(1)
// expected at any degree. An index slot is 4 bytes — the position plus
// one, 0 marking an empty slot; the destination is read back from the
// array — so a cache line holds sixteen, and an insert or a delete walks
// its probe cluster once (a delete that moves the array's last entry into
// the hole walks that entry's cluster too). Index tables take every other
// size class of the arrays' ladder. Traversal always walks the dense
// storage, so neighbor order is insertion order, transitions never reorder
// a run, and flattening is zero-copy — bystander updates cannot perturb
// another vertex's run, which is why the structure needs no DirtyExpander.
//
// Tier changes apply hysteresis: promotion at deg > hashAt but demotion
// only at deg ≤ hashAt/2 (and likewise inline at inlineAt vs inlineAt/2),
// so delete-heavy streams straddling a boundary do not thrash between
// representations. Storage sizes do the same: growth steps to the class
// the degree needs, and once a source's deletes in a batch are done an
// array or table two or more classes above its need steps down to one
// class above it. Multithreading is chunked-style like AC/DAH (vertex v
// belongs to chunk v mod chunks); per-chunk pools recycle arrays and
// index tables by size class so steady-state batch application does not
// allocate, and each batch ends by dropping whatever stock exceeds what it
// or the batch before it drew.
//
// A chunk applies its bucket grouped by source, stageGroup records at a
// time, and a hint pass loads the lines each group will dereference
// before the group applies, one level of the record → index → slot →
// array chain at a time, so the misses of a group's ops overlap instead
// of queueing behind each other (see store.hint). The hints only read:
// the ops, their order and every counter are those of a per-edge loop.
//
// saga:lockless — chunk workers may only touch chunk-owned state
// (enforced by sagavet; see internal/analysis).
package hybrid

import (
	"sync"
	"unsafe"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// Name is the registry key.
const Name = "hybrid"

// DefaultHashThreshold is the default array→hash promotion boundary
// (ds.Config.FlushThreshold overrides it, sharing DAH's low→high knob).
const DefaultHashThreshold = 32

// InlineSlots is the inline-tier capacity baked into the vertex record.
const InlineSlots = 5

func init() {
	ds.Register(Name, func(cfg ds.Config) ds.Graph {
		ht := cfg.FlushThreshold
		if ht <= 0 {
			ht = DefaultHashThreshold
		}
		return ds.NewTwoCopy(cfg.Directed, func() ds.OneDir {
			return newStore(cfg.Chunks, ht, cfg.MaxNodesHint)
		})
	})
}

// Tier identifies a vertex's current representation.
type Tier uint8

// The three representations, cheapest first.
const (
	TierInline Tier = iota
	TierArray
	TierHash
)

func (t Tier) String() string {
	switch t {
	case TierInline:
		return "inline"
	case TierArray:
		return "array"
	case TierHash:
		return "hash"
	}
	return "?"
}

// vertex is one per-vertex record, exactly one cache line. Invariants,
// maintained by the owning chunk's worker:
//   - deg == the number of stored neighbors
//   - arr == nil (inline tier): neighbors are inline[:deg], deg ≤ inlineAt,
//     acap == 0
//   - arr != nil: arr is the first of acap entries (a size class), the
//     neighbors are the first deg of them, inline is unused
//   - idx != nil (hash tier): arr != nil and idx maps every arr[i].ID → i
type vertex struct {
	deg    int32
	acap   int32
	inline [InlineSlots]graph.Neighbor
	arr    *graph.Neighbor
	idx    *dstIndex
}

// RecordBytes is the size of one vertex record and InlineOffset where its
// inline slots start, for the architecture shadow's address model.
const (
	RecordBytes  = unsafe.Sizeof(vertex{})
	InlineOffset = unsafe.Offsetof(vertex{}.inline)
)

const neighborBytes = int64(unsafe.Sizeof(graph.Neighbor{}))

// run returns the dense neighbor storage (valid until the next update).
func (v *vertex) run() []graph.Neighbor {
	if v.arr != nil {
		return unsafe.Slice(v.arr, v.acap)[:v.deg]
	}
	return v.inline[:v.deg]
}

type store struct {
	chunks int

	// Tier boundaries. Promotion happens above the high-water marks
	// (inlineAt, hashAt); demotion below the low-water marks (uninlineAt,
	// unhashAt); the gap between each pair is the hysteresis band.
	inlineAt   int // inline-tier capacity: deg ≤ inlineAt stays inline
	uninlineAt int // array→inline demotion at deg ≤ uninlineAt
	hashAt     int // array→hash promotion at deg > hashAt
	unhashAt   int // hash→array demotion at deg ≤ unhashAt

	// verts is indexed by global vertex ID; vertex v is owned by chunk
	// v mod chunks during ingestion (the AC ownership discipline), and
	// EnsureNodes grows it only between batches.
	verts []vertex
	pools []*chunkPools // saga:chunked
	// stats is the batch in flight's tally per chunk: cleared when a batch
	// starts, slot c written by chunk c's worker, merged after the join.
	stats []chunkCounters // saga:chunked

	numEdges int    // saga:guardedby profMu
	taken    uint64 // TakeRewritten calls

	profMu sync.Mutex
	prof   ds.UpdateProfile // saga:guardedby profMu
}

func newStore(chunks, hashAt, hint int) *store {
	inlineAt := InlineSlots
	if hashAt <= inlineAt {
		// Keep the tier order strict (inline < array ≤ hash) even under
		// tiny test thresholds like FlushThreshold: 2.
		inlineAt = hashAt - 1
	}
	s := &store{
		chunks:     chunks,
		inlineAt:   inlineAt,
		uninlineAt: inlineAt / 2,
		hashAt:     hashAt,
		unhashAt:   hashAt / 2,
		stats:      make([]chunkCounters, chunks),
	}
	s.pools = make([]*chunkPools, chunks)
	for i := range s.pools {
		s.pools[i] = &chunkPools{}
	}
	// saga:allow lockheld -- constructor: s is not shared yet.
	s.prof.ChunkLoads = make([]uint64, chunks)
	if hint > 0 {
		s.verts = make([]vertex, 0, hint)
	}
	return s
}

// chunkCounters is one worker's batch-local tally, merged into the profile
// under profMu after the workers join (so the hot path touches no shared
// counters, atomic or otherwise).
type chunkCounters struct {
	loads    uint64
	scans    uint64
	inserted uint64
	removed  uint64
	promos   uint64
	demos    uint64
	moved    uint64 // entries copied by tier transitions (charged as MetaOps)
	hint     uint64 // what the hint passes loaded, folded; never merged
}

// EnsureNodes implements ds.OneDir.
func (s *store) EnsureNodes(n int) {
	if n <= len(s.verts) {
		return
	}
	if n <= cap(s.verts) {
		s.verts = s.verts[:n]
		return
	}
	grow := 2 * cap(s.verts)
	if grow < n {
		grow = n
	}
	nv := make([]vertex, n, grow)
	copy(nv, s.verts)
	s.verts = nv
}

// UpdateEdges implements ds.OneDir: chunked-style multithreading; each
// chunk's bucket is ingested by one worker with no locks, grouped by
// source vertex (see srcOrder.bySrc).
func (s *store) UpdateEdges(edges []graph.Edge) {
	clear(s.stats)
	ds.GroupByChunk(edges, s.chunks, func(chunk int, bucket []graph.Edge) {
		s.stats[chunk] = s.insertBucket(s.pools[chunk], bucket)
	})
	s.profMu.Lock()
	s.prof.EdgesIngested += uint64(len(edges))
	s.mergeStats()
	s.profMu.Unlock()
}

// insertBucket applies one chunk's bucket in source order, stageGroup
// records at a time: a hint pass over the group, then its inserts. It
// returns the chunk's tally.
//
// saga:chunksafe
func (s *store) insertBucket(pool *chunkPools, bucket []graph.Edge) chunkCounters {
	var st chunkCounters
	order := pool.order.bySrc(bucket)
	for lo := 0; lo < len(order); lo += stageGroup {
		grp := order[lo:min(lo+stageGroup, len(order))]
		st.hint ^= s.hint(bucket, grp, false)
		for _, i := range grp {
			e := bucket[i]
			s.insertOne(pool, &st, e.Src, e.Dst, e.Weight)
		}
	}
	pool.trim()
	st.loads = uint64(len(bucket))
	return st
}

// mergeStats folds the per-chunk tallies into the profile.
//
// saga:locked s.profMu
func (s *store) mergeStats() {
	for c := range s.stats {
		st := &s.stats[c]
		s.prof.Inserted += st.inserted
		s.prof.ScanSteps += st.scans
		s.prof.ChunkLoads[c] += st.loads
		s.prof.MetaOps += st.moved
		s.prof.TierPromotions += st.promos
		s.prof.TierDemotions += st.demos
		s.numEdges += int(st.inserted) - int(st.removed)
	}
}

// stageGroup is how many records of a bucket's source order one hint
// pass covers before they are applied. 64 was measured against 16, 32,
// 128 and one pass over the whole bucket (EXPERIMENTS.md, "Staged hybrid
// apply").
const stageGroup = 64

// hint loads, ahead of a group's apply, the lines its ops will dereference
// — one stage at a time, so that the loads of a stage are independent and
// their misses overlap instead of each op's chain of dependent misses
// (record → index header → home slot → array entry) waiting for the op
// before it: group prefetching (Chen et al., ICDE 2004). The stages are
// each source's record; its array's first and last entry and its index
// header; the home slot of dst and, for a delete, of the array's last
// entry, the one a swap-with-last moves; and the array entry dst's home
// slot names. It only reads, and returns what it loaded folded into one
// word the caller keeps in its chunk's counters, since Go has no prefetch
// intrinsic and a load whose value is dropped may be dropped with it.
// Hints are taken before the group applies: a promotion or resize inside
// the group makes a later hint stale, which costs a miss and nothing else.
//
// saga:hotpath
// saga:chunksafe
func (s *store) hint(bucket []graph.Edge, grp []uint32, del bool) uint64 {
	verts := s.verts
	var sink uint64
	for _, i := range grp {
		if src := bucket[i].Src; int(src) < len(verts) {
			sink += uint64(verts[src].deg)
		}
	}
	for _, i := range grp {
		if src := bucket[i].Src; int(src) < len(verts) && verts[src].arr != nil {
			v := &verts[src]
			if run := v.run(); len(run) > 0 {
				sink += uint64(run[0].ID) + uint64(run[len(run)-1].ID)
			}
			if v.idx != nil {
				sink += uint64(v.idx.count)
			}
		}
	}
	for _, i := range grp {
		if e := bucket[i]; int(e.Src) < len(verts) && verts[e.Src].idx != nil {
			v := &verts[e.Src]
			t := v.idx
			sink += uint64(t.slots[t.home(e.Dst)])
			if run := v.run(); del && len(run) > 0 {
				sink += uint64(t.slots[t.home(run[len(run)-1].ID)])
			}
		}
	}
	for _, i := range grp {
		if e := bucket[i]; int(e.Src) < len(verts) && verts[e.Src].idx != nil {
			v := &verts[e.Src]
			run := v.run()
			if slot := v.idx.slots[v.idx.home(e.Dst)]; slot != 0 {
				sink += uint64(run[slot-1].ID)
			}
		}
	}
	return sink
}

// insertOne performs one degree-adaptive unique insertion. It mutates only
// state owned by src's chunk, so chunk workers may call it on their own
// bucket.
//
// saga:chunksafe
func (s *store) insertOne(pool *chunkPools, st *chunkCounters, src, dst graph.NodeID, w graph.Weight) {
	v := &s.verts[src]
	deg := int(v.deg)
	switch {
	case v.idx != nil:
		// Hash tier: one walk of the per-vertex index answers the duplicate
		// check and, for a new dst, has already placed it at the array's end.
		run := v.run()
		if pos, ok := v.idx.insert(pool, run, dst, &st.scans); ok {
			if run[pos].Weight != w {
				pool.rewrote(src)
			}
			run[pos].Weight = w
			return
		}
		appendGrow(pool, v, graph.Neighbor{ID: dst, Weight: w})
		st.inserted++
	case v.arr != nil:
		// Array tier: short linear scan (bounded by hashAt). The scan
		// tally stays out of the loop so the hot path is pure compares.
		run := v.run()
		for i := range run {
			if run[i].ID == dst {
				st.scans += uint64(i + 1)
				if run[i].Weight != w {
					pool.rewrote(src)
				}
				run[i].Weight = w
				return
			}
		}
		st.scans += uint64(deg)
		appendGrow(pool, v, graph.Neighbor{ID: dst, Weight: w})
		st.inserted++
		if deg+1 > s.hashAt {
			s.promoteToHash(pool, v, st)
		}
	default:
		// Inline tier: the scan never leaves the vertex record.
		for i := 0; i < deg; i++ {
			if v.inline[i].ID == dst {
				st.scans += uint64(i + 1)
				if v.inline[i].Weight != w {
					pool.rewrote(src)
				}
				v.inline[i].Weight = w
				return
			}
		}
		st.scans += uint64(deg)
		if deg < s.inlineAt {
			v.inline[deg] = graph.Neighbor{ID: dst, Weight: w}
			v.deg++
			st.inserted++
			return
		}
		// Inline full: promote to the array tier, preserving order.
		arr, acap := pool.getArr(deg + 1)
		a := unsafe.Slice(arr, acap)
		copy(a, v.inline[:deg])
		a[deg] = graph.Neighbor{ID: dst, Weight: w}
		v.arr, v.acap = arr, acap
		v.deg++
		st.inserted++
		st.promos++
		st.moved += uint64(deg)
		if deg+1 > s.hashAt {
			s.promoteToHash(pool, v, st)
		}
	}
}

// appendGrow appends nb to v's array through the pool: a full array swaps
// for the next size class and the old one is recycled.
func appendGrow(pool *chunkPools, v *vertex, nb graph.Neighbor) {
	if v.deg == v.acap {
		na, ncap := pool.getArr(int(v.acap) + 1)
		copy(unsafe.Slice(na, ncap), v.run())
		pool.putArr(v.arr, v.acap)
		v.arr, v.acap = na, ncap
	}
	unsafe.Slice(v.arr, v.acap)[v.deg] = nb
	v.deg++
}

// promoteToHash builds the per-vertex index from the existing array. The
// array (and hence traversal order) is untouched.
//
// saga:chunksafe
func (s *store) promoteToHash(pool *chunkPools, v *vertex, st *chunkCounters) {
	idx := pool.getIdx(IndexSlotsFor(int(v.deg) + 1))
	idx.fill(v.run(), &st.scans)
	v.idx = idx
	st.promos++
	st.moved += uint64(v.deg)
}

// DeleteEdges implements ds.OneDir with the same chunked ownership
// as UpdateEdges; absent edges are no-ops. Each source's deletes are
// consecutive (bySrc), and once they are done settle decides its tier and
// storage size once; what the deletes release goes back to the pool, and
// the trim then drops whatever stock exceeds what this batch or the one
// before it drew.
func (s *store) DeleteEdges(edges []graph.Edge) {
	clear(s.stats)
	ds.GroupByChunk(edges, s.chunks, func(chunk int, bucket []graph.Edge) {
		s.stats[chunk] = s.deleteBucket(s.pools[chunk], bucket)
	})
	s.profMu.Lock()
	s.mergeStats()
	s.profMu.Unlock()
}

// deleteBucket is insertBucket's twin for deletes: each source settles
// once its last delete is applied, whichever group that falls in.
//
// saga:chunksafe
func (s *store) deleteBucket(pool *chunkPools, bucket []graph.Edge) chunkCounters {
	var st chunkCounters
	if len(bucket) == 0 {
		return st
	}
	order := pool.order.bySrc(bucket)
	src := bucket[order[0]].Src
	for lo := 0; lo < len(order); lo += stageGroup {
		grp := order[lo:min(lo+stageGroup, len(order))]
		st.hint ^= s.hint(bucket, grp, true)
		for _, i := range grp {
			e := bucket[i]
			if e.Src != src {
				s.settle(pool, &st, src)
				src = e.Src
			}
			removed := st.removed
			s.deleteOne(&st, e.Src, e.Dst)
			if st.removed != removed {
				pool.rewrote(e.Src)
			}
		}
	}
	s.settle(pool, &st, src)
	pool.trim()
	return st
}

// deleteOne removes (src,dst) if present: swap-with-last in the dense
// storage of whatever tier the vertex is in, with the index fix-up in the
// hash tier. Every tier deletes by swap-with-last, so the tier the vertex
// sits in while its deletes run does not change its neighbor order.
//
// saga:chunksafe
func (s *store) deleteOne(st *chunkCounters, src, dst graph.NodeID) {
	if int(src) >= len(s.verts) {
		return
	}
	v := &s.verts[src]
	switch {
	case v.idx != nil:
		run := v.run()
		pos, ok := v.idx.take(run, dst, &st.scans)
		if !ok {
			return
		}
		last := len(run) - 1
		if int(pos) != last {
			moved := run[last]
			run[pos] = moved
			v.idx.set(moved.ID, int32(last), pos, &st.scans)
		}
		v.deg--
		st.removed++
	case v.arr != nil:
		run := v.run()
		for i := range run {
			if run[i].ID == dst {
				st.scans += uint64(i + 1)
				run[i] = run[len(run)-1]
				v.deg--
				st.removed++
				return
			}
		}
		st.scans += uint64(len(run))
	default:
		deg := int(v.deg)
		for i := 0; i < deg; i++ {
			if v.inline[i].ID == dst {
				st.scans += uint64(i + 1)
				v.inline[i] = v.inline[deg-1]
				v.inline[deg-1] = graph.Neighbor{}
				v.deg--
				st.removed++
				return
			}
		}
		st.scans += uint64(deg)
	}
}

// settle runs once after a source's deletes in a batch. First the tier
// demotions at the low-water marks: hash→array at deg ≤ unhashAt, then
// array→inline at deg ≤ uninlineAt. A group's degree only falls, so
// these are the demotions a per-edge check would have made, and every
// tier deletes by swap-with-last, so the neighbor order is too. Then the
// storage that stays steps down, with hysteresis: an array whose class is
// two or more above ds.CapFor(deg), or a table two or more classes above
// IndexSlotsFor(deg), moves to the class one above that need. A degree
// moving by ±1 around a class boundary therefore never copies twice:
// growth leaves storage at its need, and only a drop of a further class
// shrinks it.
//
// saga:chunksafe
func (s *store) settle(pool *chunkPools, st *chunkCounters, src graph.NodeID) {
	if int(src) >= len(s.verts) {
		return
	}
	v := &s.verts[src]
	if v.arr == nil {
		return
	}
	deg := int(v.deg)
	if v.idx != nil && deg <= s.unhashAt {
		pool.putIdx(v.idx)
		v.idx = nil
		st.demos++
	}
	if v.idx == nil && deg <= s.uninlineAt {
		n := copy(v.inline[:], v.run())
		clear(v.inline[n:])
		pool.putArr(v.arr, v.acap)
		v.arr, v.acap = nil, 0
		st.demos++
		st.moved += uint64(n)
		return
	}
	// Two array classes up are at least 4/3 of the need, and two table
	// classes up twice a need of at least 10/7·deg: storage below those
	// bounds, most of it, skips the class arithmetic.
	if 3*int(v.acap) >= 4*deg {
		if c, ok := shrinkTo(int(v.acap), ds.CapFor(deg), 1); ok {
			na, ncap := pool.getArr(c)
			copy(unsafe.Slice(na, ncap), v.run())
			pool.putArr(v.arr, v.acap)
			v.arr, v.acap = na, ncap
			st.moved += uint64(deg)
		}
	}
	if v.idx != nil && 7*len(v.idx.slots) >= 20*deg {
		if c, ok := shrinkTo(len(v.idx.slots), IndexSlotsFor(deg), idxClassStep); ok {
			pool.resizeIdx(v.idx, v.run(), c, &st.scans)
			st.moved += uint64(deg)
		}
	}
}

// TakeRewritten implements ds.RewriteReporter: each chunk lists the
// sources it rewrote, and every tier deletes by swap-with-last and
// changes tier or size by copying the run in order, so any other change
// to a run is growth at its tail.
func (s *store) TakeRewritten(mark func(graph.NodeID)) uint64 {
	for _, p := range s.pools {
		p.track = true
		for _, v := range p.rewritten {
			mark(v)
		}
		p.rewritten = p.rewritten[:0]
	}
	s.taken++
	return s.taken
}

// Degree implements ds.OneDir.
func (s *store) Degree(v graph.NodeID) int {
	if int(v) >= len(s.verts) {
		return 0
	}
	return int(s.verts[v].deg)
}

// NumEdges implements ds.OneDir.
func (s *store) NumEdges() int {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	return s.numEdges
}

// NumNodes implements ds.OneDir.
func (s *store) NumNodes() int { return len(s.verts) }

// TakeProfile implements ds.OneDir. Hash probes and linear-scan steps are
// both charged as ScanSteps; entries copied by tier transitions as
// MetaOps; transitions themselves as TierPromotions/TierDemotions.
func (s *store) TakeProfile(into *ds.UpdateProfile) {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	s.prof.MoveTo(into)
}

// Chunks reports the chunk count (for the architecture replayer).
func (s *store) Chunks() int { return s.chunks }

// TierOf reports v's current representation (for layout tests and the
// architecture replayer).
func (s *store) TierOf(v graph.NodeID) Tier {
	if int(v) >= len(s.verts) {
		return TierInline
	}
	switch vx := &s.verts[v]; {
	case vx.idx != nil:
		return TierHash
	case vx.arr != nil:
		return TierArray
	default:
		return TierInline
	}
}

// LayoutOf reports the dense-array capacity and index slot count backing
// v (zero for tiers that do not use them); layout tests and the
// architecture shadow crossvalidate against it.
func (s *store) LayoutOf(v graph.NodeID) (arrCap, idxSlots int) {
	if int(v) >= len(s.verts) {
		return 0, 0
	}
	vx := &s.verts[v]
	arrCap = int(vx.acap)
	if vx.idx != nil {
		idxSlots = len(vx.idx.slots)
	}
	return arrCap, idxSlots
}

// Thresholds reports the tier boundaries (promotion high-water marks and
// demotion low-water marks) for tests and the shadow model.
func (s *store) Thresholds() (inlineAt, uninlineAt, hashAt, unhashAt int) {
	return s.inlineAt, s.uninlineAt, s.hashAt, s.unhashAt
}

// PoolRecycled reports cumulative pool hits across chunks (for the
// steady-state allocation tests).
func (s *store) PoolRecycled() uint64 {
	var n uint64
	for _, p := range s.pools {
		n += p.recycled
	}
	return n
}

// Footprint implements ds.Footprinter: records at the slice's capacity,
// arrays at capacity and at their live length, index slots, and what the
// chunk pools hold. It walks every vertex, so it runs between batches.
func (s *store) Footprint() ds.Footprint {
	f := ds.Footprint{Records: int64(cap(s.verts)) * int64(RecordBytes)}
	for i := range s.verts {
		v := &s.verts[i]
		if v.arr == nil {
			continue
		}
		f.ArrayCap += int64(v.acap) * neighborBytes
		f.ArrayLive += int64(v.deg) * neighborBytes
		if v.idx != nil {
			f.IndexSlots += int64(len(v.idx.slots)) * int64(IndexSlotBytes)
		}
	}
	for _, p := range s.pools {
		f.Pooled += p.pooledBytes()
	}
	return f
}
