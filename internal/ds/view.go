package ds

import (
	"math/bits"
	"slices"
	"time"

	"sagabench/internal/graph"
)

// ComputeView is the compute-view layer: an incrementally maintained flat
// mirror of a dynamic structure. The structure stays the system of record
// for the update phase; after each batch the pipeline calls Refresh, and
// the compute phase then traverses the mirror's flat runs instead of
// paying per-vertex interface dispatch on the dynamic structure. This is
// the hybrid representation GraphTango argues for: dynamic side for
// updates, flat side for analytics.
//
// The mirror is log-structured, so a refresh costs what the batch touched,
// not what the graph holds. Each direction keeps an append-only adjacency
// arena and an index of begin/end spans (graph.CSR). Refresh appends the
// runs the batch changed at the arena's tail, in vertex order, and patches
// only their spans; the runs they replace stay where they are,
// unreachable, until the dead space would pass compactSlack of the live
// entries (or the batch is too large for relocating to pay, see refresh) —
// then the refresh compacts: live runs are copied out of the mirror itself
// (clean stretches as single memmoves, never back through FlatFill) into
// another arena in vertex order, which is what a first build lays out.
//
// A run that only grew need not move. Stores that append each new entry
// at a run's tail report which runs had an entry they held overwritten or
// deleted (RewriteReporter); every other dirty run only grew, and if it
// has room behind it the refresh copies just its new tail there and moves
// its span's End. A run gets room when it is relocated because it grew
// past roomAt entries, and keeps it through compactions, while the slack
// absorbs roomBatches batches like the current one; room is dead space to
// the compactSlack rule, so it is paid for out of the same bound.
// Extension is a case of relocation: the same pass plans both, and the
// same fill writes them.
//
// What a FlatCSR copy reaches stays intact through the next Refresh, and
// for good if DropSpares precedes every later one — the contract the
// epoch layer's ReclaimSpare gate is built on. The arena is written only
// at its tail and in the room behind a run, which no span, current or
// handed out, covers: a span's End only moves forward into its own room.
// So relocating and extending never touch a handed-out run, and a
// compaction leaves the old arena behind. What a later refresh does write
// again is the index buffer handed out two refreshes ago (the index is
// double-buffered) and, when two refreshes in a row compact, the arena
// only that index reaches; DropSpares abandons both to the garbage
// collector instead.
//
// The mirror preserves each store's own neighbor order — runs are filled
// through FlatFill, never sorted — so order-sensitive float reductions
// (PageRank's in-neighbor sum) produce bit-identical results through the
// view and through the structure.
//
// A directed mirror comes in three shapes, for what its consumer reads:
// both directions (the default, and what a published epoch needs), out
// runs only (MirrorOutOnly: push-only kernels), or in runs of source IDs
// plus one out-degree per vertex (MirrorInOnly: a pull sweep normalised by
// the source's out-degree, FS PageRank, which reads no weight).
//
// A ComputeView implements Graph for reading through the CSRGraph it
// embeds over the mirror; Update panics. Refresh must not run concurrently
// with reads of the view itself — the same update/compute phase
// separation the structures themselves require.
type ComputeView struct {
	// The mirror proper, read through the adapter; directed is the
	// source's.
	CSRGraph

	src Graph
	out *mirrorDir[graph.Neighbor] // nil when in-only
	in  *mirrorDir[graph.Neighbor] // nil when out-only, in-only, or undirected: the in runs alias the out runs
	ids *mirrorDir[graph.NodeID]   // an in-only mirror's in runs, source IDs only; nil otherwise

	// An in-only mirror's out-degrees, read from degOf for the batch's
	// sources and for vertices not covered yet (csr.OutDeg).
	degOf OneDir

	touched []graph.NodeID // scratch: one direction's touched sources

	stats RefreshStats
}

// compactSlack bounds the mirror's garbage: a refresh relocates dirty
// runs to the arena's tail only while the arena stays within
// (1+compactSlack) x the live entries — and only while that slack would
// absorb two batches like the current one — and compacts otherwise. An
// arena is allocated with at most that slack, so the constant also caps
// the mirror's memory at 1.5x live per direction — 2x, as two arenas
// without slack, while back-to-back compactions of a graph that is not
// growing recycle each other's arena (the double-buffered layout this
// replaces held 2x always). EXPERIMENTS.md "Compute-view
// amortization" has the measured refresh time and heap for 0.25 / 0.5 /
// 1.0 and the reason for the two-batch rule.
const compactSlack = 0.5

// listSlack and listFloor bound a direction's dirty lists, by the rule
// hybrid's per-chunk source-order scratch follows (bysrc.go): once a list's
// capacity is past listFloor entries and more than listSlack times what it
// last listed, it is re-made at that size, so the |V| entries of a first
// build are not kept for batches that dirty a few thousand vertices.
const (
	listSlack = 4
	listFloor = 4096
)

// record is what a mirror direction stores per adjacency entry: the whole
// neighbor, or only its ID where the one consumer reads no weight (the
// in-only shape).
type record interface{ graph.Neighbor | graph.NodeID }

// mirrorDir is one adjacency direction of the mirror, holding records of
// type R.
type mirrorDir[R record] struct {
	store  OneDir
	expand DirtyExpander // non-nil for stores that reorder bystander runs
	// fill writes u's run, in the store's FlatFill order, into dst and
	// returns how many records the store had; worker w may use its own
	// scratch for it.
	fill func(w int, u graph.NodeID, dst []R) int

	// Extension in place, where the store reports its rewrites (nil
	// rewrites: every dirty run relocates). tail writes u's run from
	// entry `from` on into dst and returns how many it wrote. taken is
	// the number of the last report taken. Two bitmaps over vertices:
	// rewr marks this refresh's report (cleared with dirty), room the
	// vertices whose run was placed with room behind it (see roomAt).
	rewrites RewriteReporter
	tail     func(u graph.NodeID, from int, dst []R) int
	taken    uint64
	rewr     []uint64
	room     []uint64

	// The mirror proper: vertex v's run is arena[spans[v].Begin:
	// spans[v].End]. spans belongs to idx[cur] and covers len(spans)
	// vertices; live counts the entries it reaches, so len(arena)-live is
	// dead space.
	spans []graph.Span
	arena []R
	live  int

	// The index double buffer. idx[1-cur] was handed out two refreshes
	// ago; unless stale, it differs from the current index exactly at the
	// vertices of prev, so a relocating refresh replays prev and this
	// refresh's list into it instead of copying every span.
	idx [2]indexBuf[R]
	cur int

	n     int            // vertices this refresh covers
	dirty []uint64       // bitmap over vertices: set while a vertex is dirty
	list  []graph.NodeID // this refresh's dirty vertices, ascending
	prev  []graph.NodeID // the previous refresh's list
	moves []move         // where this refresh puts each run of list

	// Method values cached once, and the cuts of the fill pass reused, so
	// a relocating refresh allocates nothing and a compaction only its
	// arena. toSpans and toArena are the index and arena a compaction
	// writes, while it runs, and toRoom whether it lays room out.
	markFn      func(graph.NodeID)
	noteFn      func(graph.NodeID)
	fillPass    func(w, lo, hi int)
	compactPass func(w, lo, hi int)
	toSpans     []graph.Span
	toArena     []R
	toRoom      bool
	cuts        []int
	threads     int
}

// move is one dirty run's place in the refresh under way: the span it
// takes, and how many of its entries already sit there — non-zero only
// for a run extended in place.
type move struct {
	to   graph.Span
	kept uint32
}

// indexBuf is one half of a direction's index double buffer.
type indexBuf[R record] struct {
	spans []graph.Span
	// stale: replaying prev cannot bring the buffer up to date (never
	// written, dropped, or a compaction rewrote the other buffer since);
	// it needs a full copy.
	stale bool
	// own is the arena the spans point into while no other handed-out
	// index reaches it: a compaction wrote this buffer and no refresh has
	// relocated into that arena since. Whatever frees the spans for
	// writing (see DropSpares) then frees own too, so back-to-back
	// compactions of a graph that is not growing ping-pong between two
	// arenas instead of allocating one each.
	own []R
}

// RefreshStats describes one Refresh call.
type RefreshStats struct {
	// Nodes is the vertex count the refresh covered.
	Nodes int
	// Dirty is the number of vertices refilled from the structure (the
	// max across directions).
	Dirty int
	// Written is the number of adjacency entries the refresh wrote into
	// the mirror, both directions: the dirty runs when relocating, every
	// live entry when compacting.
	Written int
	// Full reports a first build or a compaction: the refresh rewrote the
	// whole mirror into a fresh arena instead of relocating dirty runs.
	Full bool
	// Duration is the wall time of the refresh.
	Duration time.Duration
}

// DirtyFraction is Dirty/Nodes (1 on a first build, 0 on empty graphs).
func (s RefreshStats) DirtyFraction() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.Dirty) / float64(s.Nodes)
}

// NewComputeView builds a mirror over g, reporting false when g is not a
// TwoCopy structure (the caller then stays on the interface path). threads
// is the refresh worker count (0 = 1).
func NewComputeView(g Graph, threads int) (*ComputeView, bool) {
	t, ok := g.(*TwoCopy)
	if !ok {
		return nil, false
	}
	if threads <= 0 {
		threads = 1
	}
	v := &ComputeView{CSRGraph: CSRGraph{directed: g.Directed()}, src: g}
	v.out = newNeighborDir(t.OutStore(), threads)
	if t.Directed() {
		v.in = newNeighborDir(t.InStore(), threads)
	}
	return v, true
}

func newMirrorDir[R record](st OneDir, threads int, fill func(w int, u graph.NodeID, dst []R) int) *mirrorDir[R] {
	d := &mirrorDir[R]{store: st, fill: fill, threads: threads}
	d.expand, _ = st.(DirtyExpander)
	d.idx[0].stale, d.idx[1].stale = true, true
	d.markFn, d.noteFn, d.fillPass, d.compactPass = d.mark, d.note, d.fillRange, d.compactRange
	return d
}

// newNeighborDir mirrors st's runs whole: FlatFill writes them in place,
// and a store that reports its rewrites has the runs that only grew
// extended in place, their new tails copied straight out of its run.
func newNeighborDir(st OneDir, threads int) *mirrorDir[graph.Neighbor] {
	d := newMirrorDir(st, threads, func(_ int, u graph.NodeID, dst []graph.Neighbor) int {
		return st.FlatFill(u, dst)
	})
	if rw, ok := st.(RewriteReporter); ok {
		d.rewrites = rw
		d.tail = func(u graph.NodeID, from int, dst []graph.Neighbor) int {
			return copy(dst, rw.FlatRun(u)[from:])
		}
	}
	return d
}

// newIDDir mirrors st's runs as their IDs: each run is filled into the
// worker's scratch run, grown to the largest degree it has met, and
// narrowed from there. It extends nothing in place: the one consumer of
// this shape, FS PageRank, sweeps the whole arena every iteration, and
// the batches it is measured on compact it in every refresh anyway.
func newIDDir(st OneDir, threads int) *mirrorDir[graph.NodeID] {
	scratch := make([][]graph.Neighbor, threads)
	return newMirrorDir(st, threads, func(w int, u graph.NodeID, dst []graph.NodeID) int {
		if cap(scratch[w]) < len(dst) {
			scratch[w] = slices.Grow(scratch[w][:0], len(dst))
		}
		run := scratch[w][:len(dst)]
		n := st.FlatFill(u, run)
		for i, nb := range run {
			dst[i] = nb.ID
		}
		return n
	})
}

// MirrorOutOnly stops maintaining the in-adjacency mirror. The refresh
// then maintains only the out direction — halving its cost on directed
// graphs — which is safe whenever the consumer never pulls from
// in-neighbors (compute.NeedsInAdjacency reports this per algorithm and
// model). InDegree/InNeigh panic afterwards rather than answer with stale
// or aliased data. No-op on undirected mirrors, where the single store
// already serves both orientations for free.
func (v *ComputeView) MirrorOutOnly() {
	if v.in == nil {
		return
	}
	v.in = nil
	v.csr.InSpans, v.csr.InAdj = nil, nil
}

// MirrorInOnly stops maintaining the out-adjacency mirror and keeps one
// 32-bit out-degree per vertex in its place (graph.CSR.OutDeg), which is
// safe whenever the consumer reads out-degrees but never out-runs
// (compute.NeedsOutAdjacency). The in runs shrink to their source IDs
// (graph.CSR.InIDs), half the bytes of whole neighbors: the one consumer
// of this shape, FS PageRank, reads no weight. The next Refresh rebuilds
// them. The degrees are rewritten in place by every Refresh, so an
// in-only view must not be published as an epoch. OutNeigh and InNeigh
// panic afterwards. No-op on undirected mirrors.
func (v *ComputeView) MirrorInOnly() {
	if v.out == nil || !v.src.Directed() {
		return
	}
	if v.in == nil {
		panic("ds: MirrorInOnly on an out-only ComputeView")
	}
	v.degOf = v.out.store
	v.ids = newIDDir(v.in.store, v.in.threads)
	v.out, v.in = nil, nil
	v.csr = graph.CSR{}
}

// Refresh brings the mirror up to date after the update phase applied
// adds and dels to the source structure. Only the runs those edges could
// have changed are read from the structure; whether they are appended to
// the arena or the whole mirror is compacted is decided per direction
// from the entry counts (see compactSlack).
func (v *ComputeView) Refresh(adds, dels graph.Batch) RefreshStats {
	start := time.Now()
	n := v.src.NumNodes()
	st := RefreshStats{Nodes: n}

	// An edge's out-run lives with its source and its in-run with its
	// destination; undirected ingestion mirrors every edge, making both
	// endpoints sources of the single store.
	undirected := !v.src.Directed()
	if v.out != nil {
		v.touched = v.touched[:0]
		for _, b := range [2]graph.Batch{adds, dels} {
			for _, e := range b {
				v.touched = append(v.touched, e.Src)
				if undirected {
					v.touched = append(v.touched, e.Dst)
				}
			}
		}
		v.out.refresh(n, v.touched, &st)
		v.csr.OutSpans, v.csr.OutAdj = v.out.spans, v.out.arena
		v.csr.Edges = v.out.live
	} else {
		v.refreshDegrees(n, adds, dels)
	}
	if v.in != nil || v.ids != nil {
		v.touched = v.touched[:0]
		for _, b := range [2]graph.Batch{adds, dels} {
			for _, e := range b {
				v.touched = append(v.touched, e.Dst)
			}
		}
	}
	if v.in != nil {
		v.in.refresh(n, v.touched, &st)
		v.csr.InSpans, v.csr.InAdj = v.in.spans, v.in.arena
		v.csr.Edges = v.in.live
	} else if v.ids != nil {
		v.ids.refresh(n, v.touched, &st)
		v.csr.InSpans, v.csr.InIDs = v.ids.spans, v.ids.arena
		v.csr.Edges = v.ids.live
	} else if undirected {
		// The single store already holds both orientations.
		v.csr.InSpans, v.csr.InAdj = v.csr.OutSpans, v.csr.OutAdj
	}
	st.Duration = time.Since(start)
	v.stats = st
	return st
}

// refreshDegrees brings an in-only mirror's out-degree vector up to n
// vertices: a vertex's out-degree moves only when it is the source of an
// added or deleted edge, so the batch's sources are re-read, and so is
// every vertex the vector did not cover yet (all of them on a first
// build). The vector keeps an eighth of headroom, as the span index does.
func (v *ComputeView) refreshDegrees(n int, adds, dels graph.Batch) {
	deg, covered := v.csr.OutDeg, len(v.csr.OutDeg)
	if deg == nil || cap(deg) < n {
		deg = make([]uint32, covered, n+n/8)
		copy(deg, v.csr.OutDeg)
	}
	deg = deg[:n]
	for u := covered; u < n; u++ {
		deg[u] = uint32(v.degOf.Degree(graph.NodeID(u)))
	}
	for _, b := range [2]graph.Batch{adds, dels} {
		for _, e := range b {
			if int(e.Src) < covered {
				deg[e.Src] = uint32(v.degOf.Degree(e.Src))
			}
		}
	}
	v.csr.OutDeg = deg
}

// LastRefresh reports the stats of the most recent Refresh.
func (v *ComputeView) LastRefresh() RefreshStats { return v.stats }

// roomAt is the degree above which a run that only grew is given room
// when it is relocated: it takes CoarseCapFor of its degree, so the
// batches after it extend it in place until it outgrows that class and
// moves to the next, half an octave up. A compaction keeps a run's room,
// sized to its length again, so a run earns room once and not once per
// compaction. Smaller runs cost too little to
// relocate to be worth the space. A run relocated because an entry it
// held was rewritten gets no room: a hub overwritten in every batch would
// only strand it. EXPERIMENTS.md "Extension in place" has the measured
// choices.
const roomAt = 16

// roomBatches is how many batches like the current one the slack must
// absorb for room to be given or kept. On small-durable's shape the slack
// holds 10–11 times what a batch's dirty runs hold in either direction;
// on serve-reads' shape 8.7 times in the out direction, and 1.7–2.1 times
// in the in direction, whose hub is overwritten in every batch.
const roomBatches = 3

// refresh brings one direction up to date over n vertices and adds its
// work to st.
func (d *mirrorDir[R]) refresh(n int, touched []graph.NodeID, st *RefreshStats) {
	extend := d.collectDirty(n, touched)

	// Each dirty run costs a few likely cache misses: its record in the
	// structure, its span in the index. A pass that does nothing else lets
	// them overlap, where the plan's work between them would serialize
	// them (EXPERIMENTS.md, "Extension in place"): the degrees go into the
	// moves first, each read once, and one pass sums the old spans.
	// rewritten is what the dirty runs hold now, freed what they held.
	if c := cap(d.moves); c > listFloor && c > listSlack*len(d.list) {
		d.moves = make([]move, 0, len(d.list)) // see listSlack
	}
	d.moves = d.moves[:0]
	rewritten, freed := 0, 0
	for _, u := range d.list {
		deg := d.store.Degree(u)
		d.moves = append(d.moves, move{to: graph.Span{End: uint32(deg)}})
		rewritten += deg
	}
	for _, u := range d.list {
		if int(u) < len(d.spans) {
			freed += d.spans[u].Len()
		}
	}
	live := d.live - freed + rewritten
	if uint64(live) > graph.MaxSpanOffset {
		panic("ds: ComputeView direction holds more records than a graph.Span can address")
	}
	slack := int(compactSlack * float64(live))
	limit := int(min(uint64(live+slack), graph.MaxSpanOffset))
	// Room pays only where the arena outlives several batches like this
	// one; otherwise the next compaction comes before the runs grow into
	// it, and the sweeping kernels read past it until then.
	roomy := extend && roomBatches*rewritten <= slack

	// Then the plan: each run's move as if the refresh relocates. A run
	// that only grew and still fits its room keeps its place, any other
	// goes to the tail — with room, if it only grew, is past roomAt and
	// the batch is roomy. written is what the relocation would copy, and
	// pos the arena's length after it.
	written, pos := 0, len(d.arena)
	for i, u := range d.list {
		deg := int(d.moves[i].to.End)
		var old graph.Span
		if int(u) < len(d.spans) {
			old = d.spans[u]
		}
		grew := extend && deg >= old.Len() && d.rewr[u>>6]>>(u&63)&1 == 0
		if grew && d.hasRoom(u) && deg <= CoarseCapFor(old.Len()) {
			d.moves[i] = move{to: graph.Span{Begin: old.Begin, End: old.Begin + uint32(deg)}, kept: uint32(old.Len())}
			written += deg - old.Len()
			continue
		}
		size := deg
		if grew && roomy && deg > roomAt {
			size = CoarseCapFor(deg)
			d.room[u>>6] |= 1 << (u & 63)
		} else if d.room != nil {
			d.room[u>>6] &^= 1 << (u & 63)
		}
		d.moves[i] = move{to: graph.Span{Begin: uint32(pos), End: uint32(pos + deg)}}
		written += deg
		pos += size
	}

	// Relocating pays only while the slack absorbs at least two batches
	// like this one. A bigger batch would have every other refresh compact
	// anyway, and in between the sweeping kernels would stream through the
	// holes it left (measured: +11 % on PageRank with 40 % of the entries
	// rewritten per batch), so it compacts at once — into an arena without
	// slack, which the next batch like it would not use. What a batch adds
	// to the arena is its relocated runs with their room; room is dead
	// space like a relocated run's old place, so the same bound caps it.
	small := 2*(pos-len(d.arena)) <= slack
	if small && pos <= min(limit, cap(d.arena)) {
		d.relocate(n, pos)
		st.Written += written
	} else {
		capacity := live
		if small {
			capacity = limit
		}
		keep := small && roomy
		if !keep {
			clear(d.room) // batches this large compact again before room pays
		}
		d.compact(n, live, capacity, keep)
		st.Written += live
		st.Full = true
	}
	d.live = live
	if len(d.list) > st.Dirty {
		st.Dirty = len(d.list)
	}
	for _, u := range d.list {
		d.dirty[u>>6] = 0
	}
	if d.rewr != nil {
		for _, u := range d.list {
			d.rewr[u>>6] = 0
		}
	}
	// The buffer this refresh wrote is the next refresh's current one;
	// its spare lags by this list (or is stale, after a compaction). The
	// previous list is spent and becomes the next one's storage, re-made
	// at its own size if a first build grew it to |V| (see listSlack).
	spent := d.prev
	if c := cap(spent); c > listFloor && c > listSlack*len(spent) {
		spent = make([]graph.NodeID, 0, len(spent))
	}
	d.list, d.prev = spent, d.list
}

// hasRoom reports whether u's run was placed with room behind it: it
// then owns the arena up to CoarseCapFor of its length — a run with room
// only grows, and within that class — and nothing past its End is
// reachable from any index, this one or a published one.
func (d *mirrorDir[R]) hasRoom(u graph.NodeID) bool {
	return d.room != nil && d.room[u>>6]>>(u&63)&1 != 0
}

// spare returns the index buffer a refresh may write, sized to n spans,
// with headroom so a trickle of new vertices does not reallocate. A
// reallocated buffer is stale.
func (d *mirrorDir[R]) spare(n int) *indexBuf[R] {
	b := &d.idx[1-d.cur]
	if b.spans == nil || cap(b.spans) < n {
		b.spans, b.stale = make([]graph.Span, n, n+n/8), true
	}
	b.spans = b.spans[:n]
	return b
}

// collectDirty fills list, ascending, with the vertices whose runs must be
// re-read: those the batch touched (widened by stores whose iteration
// order can shift under bystander updates, see DirtyExpander) and every
// vertex the mirror does not cover yet. From a store that reports its
// rewrites it takes the report into rewr and says whether the runs not
// named there may be extended: only when the report is the next one after
// this direction's last, and not its first, which covers only what
// happened since the record-keeping started (see RewriteReporter).
func (d *mirrorDir[R]) collectDirty(n int, touched []graph.NodeID) (extend bool) {
	for len(d.dirty) < (n+63)>>6 {
		d.dirty = append(d.dirty, 0)
	}
	if k := len(d.dirty) - len(d.room); d.rewrites != nil && k > 0 {
		d.room = append(d.room, make([]uint64, k)...)
		d.rewr = append(d.rewr, make([]uint64, k)...)
	}
	d.n = n
	if d.expand != nil {
		d.expand.ExpandDirty(touched, d.markFn)
	} else {
		for _, u := range touched {
			d.mark(u)
		}
	}
	// A first build has no run to extend and takes no report, so a view
	// built only to be compared with another one does not take the
	// reports of the view it is compared with.
	if d.rewrites != nil && len(d.spans) > 0 {
		taken := d.rewrites.TakeRewritten(d.noteFn)
		extend, d.taken = d.taken != 0 && taken == d.taken+1, taken
	}
	for u := len(d.spans); u < n; u++ {
		d.mark(graph.NodeID(u))
	}
	// Reading the bitmap back gives the list in vertex order without a
	// sort: a few thousand words at 2^18 vertices.
	d.list = d.list[:0]
	for w, word := range d.dirty {
		for ; word != 0; word &= word - 1 {
			d.list = append(d.list, graph.NodeID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return extend
}

func (d *mirrorDir[R]) mark(u graph.NodeID) {
	if int(u) < d.n {
		d.dirty[u>>6] |= 1 << (u & 63)
	}
}

// note is mark for a vertex the store reports rewritten.
func (d *mirrorDir[R]) note(u graph.NodeID) {
	if int(u) < d.n {
		d.rewr[u>>6] |= 1 << (u & 63)
		d.dirty[u>>6] |= 1 << (u & 63)
	}
}

func (d *mirrorDir[R]) isDirty(u int) bool { return d.dirty[u>>6]>>(u&63)&1 != 0 }

// relocate carries out the moves: it patches the dirty runs' spans in
// the spare index buffer, which becomes the current one, grows the arena
// to pos, and fills each relocated run whole and each extended one past
// what it kept.
func (d *mirrorDir[R]) relocate(n, pos int) {
	b := d.spare(n)
	if b.stale {
		copy(b.spans, d.spans)
		b.stale = false
	} else {
		for _, u := range d.prev {
			if !d.isDirty(int(u)) { // the moves below write it
				b.spans[u] = d.spans[u]
			}
		}
	}
	for i, u := range d.list {
		b.spans[u] = d.moves[i].to
	}
	d.spans, d.arena = b.spans, d.arena[:pos]
	d.cur = 1 - d.cur
	d.idx[0].own, d.idx[1].own = nil, nil // both indexes reach the arena now
	d.cuts = graph.UniformCuts(d.cuts, len(d.list), d.threads)
	graph.ParallelRanges(d.cuts, d.fillPass)
}

// fillRange is worker w's share of a relocation: it reads the runs of
// list[lo:hi], or the tails of those extended in place, from the
// structure into the places their moves give them.
func (d *mirrorDir[R]) fillRange(w, lo, hi int) {
	for i := lo; i < hi; i++ {
		u, m := d.list[i], d.moves[i]
		dst := d.arena[m.to.Begin+m.kept : m.to.End]
		if m.kept == 0 {
			d.fillRun(w, u, dst)
		} else if d.tail(u, int(m.kept), dst) != len(dst) {
			panic("ds: ComputeView tail count does not match reported degree")
		}
	}
}

// fillRun writes u's run, in the store's own traversal order, into dst,
// which is sized to the degree the store reported.
func (d *mirrorDir[R]) fillRun(w int, u graph.NodeID, dst []R) {
	if len(dst) == 0 {
		return
	}
	if d.fill(w, u, dst) != len(dst) {
		panic("ds: ComputeView fill count does not match reported degree")
	}
}

// compact rewrites the direction into another arena of at least the given
// capacity (the spare index buffer's own, or a new one) holding the live
// entries in vertex order, each run followed by its room if it keeps any,
// with every span rewritten into the spare index buffer. Clean runs come
// from the old arena, dirty ones from the structure, at the degrees the
// moves read.
func (d *mirrorDir[R]) compact(n, live, capacity int, keepRoom bool) {
	b := d.spare(n)
	pos, i := 0, 0
	for u := range b.spans {
		l := 0
		if d.isDirty(u) {
			l = d.moves[i].to.Len()
			i++
		} else {
			l = d.spans[u].Len()
		}
		b.spans[u] = graph.Span{Begin: uint32(pos), End: uint32(pos + l)}
		if keepRoom && d.hasRoom(graph.NodeID(u)) {
			l = CoarseCapFor(l)
		}
		pos += l
	}
	if pos > int(graph.MaxSpanOffset) {
		panic("ds: ComputeView direction's room takes it past what a graph.Span can address")
	}
	arena := b.own
	if cap(arena) < max(capacity, pos) {
		arena = make([]R, pos, max(capacity, pos))
	}
	arena = arena[:pos]
	d.cuts = graph.UniformCuts(d.cuts, n, d.threads)
	d.toSpans, d.toArena, d.toRoom = b.spans, arena, keepRoom
	graph.ParallelRanges(d.cuts, d.compactPass)
	d.toSpans, d.toArena = nil, nil
	d.spans, d.arena, b.own = b.spans, arena, arena
	// The superseded arena stays with the other buffer only if a compaction
	// like this one could fill it: on a growing graph it is already too
	// small, and keeping it would hold a second copy for nothing.
	if o := &d.idx[d.cur]; cap(o.own) < capacity {
		o.own = nil
	}
	// The buffer just written is complete; no dirty list can catch the
	// other one up with it.
	b.stale, d.idx[d.cur].stale = false, true
	d.cur = 1 - d.cur
}

// compactRange moves the runs of vertices [lo,hi) to where toSpans puts
// them in toArena. Consecutive clean vertices whose runs lie back to back
// in the old arena and in the new one — everything between two relocated
// runs or two runs with room since the last compaction — move as one
// memmove; without room the new runs are back to back by construction.
func (d *mirrorDir[R]) compactRange(w, lo, hi int) {
	spans, arena, room := d.toSpans, d.toArena, d.toRoom
	for u := lo; u < hi; {
		if d.isDirty(u) {
			d.fillRun(w, graph.NodeID(u), arena[spans[u].Begin:spans[u].End])
			u++
			continue
		}
		first, from, to := u, d.spans[u].Begin, d.spans[u].End
		for u++; u < hi && !d.isDirty(u) && d.spans[u].Begin == to && (!room || spans[u].Begin == spans[u-1].End); u++ {
			to = d.spans[u].End
		}
		copy(arena[spans[first].Begin:], d.arena[from:to])
	}
}

// DropSpares abandons the spare index buffers, and the arena a spare owns
// alone, to the garbage collector: the next Refresh then writes freshly
// allocated ones instead of those handed out two refreshes ago. The
// epoch-publication layer calls this when the snapshot holding them is
// still pinned by readers — the snapshot keeps its (now GC-owned) arrays
// intact, and the writer pays an allocation and one full index copy
// instead of blocking. An arena that more than one index reaches is never
// written except past its tail, so it needs no such gate.
func (v *ComputeView) DropSpares() {
	v.out.dropSpare()
	v.in.dropSpare()
	v.ids.dropSpare()
}

func (d *mirrorDir[R]) dropSpare() {
	if d != nil {
		d.idx[1-d.cur] = indexBuf[R]{stale: true}
	}
}

// Source exposes the mirrored dynamic structure.
func (v *ComputeView) Source() Graph { return v.src }

// Update implements Graph by refusing: the mirror is read-only. Update
// the source structure and call Refresh.
func (v *ComputeView) Update(graph.Batch) {
	panic("ds: ComputeView is a read-only mirror; update the source structure and call Refresh")
}

var _ FlatView = (*ComputeView)(nil)
