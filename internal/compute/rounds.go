package compute

import (
	"math"
	"time"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// rounds is what both engines are built on: the property array, the one
// frontier, the per-worker slots, and the one wrapper every parallel range
// of either model runs under. A phase is begin, some passes, end; a pass
// is one barrier-to-barrier sweep of ranges (an INC or FS label round, a
// BFS level, a PageRank contribution or pull sweep).
//
// Every frontier walk is in ascending vertex order (see frontier): values
// are relaxed in place, so a round is a Gauss–Seidel sweep whose result at
// one thread depends on the set of vertices it holds and not on the order
// a batch or a push discovered them in.
type rounds struct {
	spec spec
	opts Options

	vals     values
	stats    Stats
	valsCopy []float64

	// The changed-vertex record, kept when track is set (INC): changed
	// marks every vertex whose value bits a settle, a trim reset or the
	// source's seeding changed since the last phase ended, and end drains
	// it into logs[gen%2], gen being the number of phases ended, or marks
	// the phase unlisted when it changed more than a patch writes. A
	// vector that holds the values of phase g ≥ oldest, and g ≥ gen-2, is
	// brought up to date by the lists of the phases after g (ValuesSince);
	// oldest moves past every earlier vector when RestoreState replaces
	// the values.
	track    bool
	changed  frontier
	logs     [2][]graph.NodeID
	unlisted [2]bool // the phase changed more vertices than a patch writes
	gen      uint64
	oldest   uint64

	// The phase in flight, as the range workers see it. begin sets csr
	// and n once; each frontier pass then consumes curr — the drain of
	// front, which the pass before it (or the seeding) marked — over the
	// edge-balanced cuts. plain says the pass is a single range, hence a
	// sequential stretch: plain stores and marks. eps is the triggering threshold of relax's rounds (0: any
	// change, which is all the FS model ever asks for).
	csr     *graph.CSR
	n       int
	eps     float64
	front   frontier
	curr    []graph.NodeID
	cuts    []int
	plain   bool
	workers []worker

	// pass is the one in flight and round the relax pass. Range bodies
	// and the wrapper are method values bound when the engine is built:
	// a closure per pass would escape through graph.ParallelRanges and
	// allocate.
	pass    *pass
	round   pass
	rangeFn func(w, lo, hi int)

	// With WorkerTiming on, ranges holds one record per worker range of
	// the phase and busy their per-worker sums. run reserves a pass's
	// slots, from base on, before the fork: each worker writes only its
	// own.
	ranges []Range
	base   int
	busy   []int64
}

// worker is one worker slot's state across the passes of a phase.
type worker struct {
	ctx                  recomputeCtx
	pushBuf              []graph.Neighbor
	processed, triggered uint64
	delta                float64 // FS PageRank: the pull range's summed |rank change|
}

// pass names one kind of parallel range: its name in a range record, the
// key that numbers it (the phase's 1-based round, level or iteration),
// and its body. A triggering pass reports how many of its vertices
// triggered where the others report the edges they read.
type pass struct {
	span, step string
	triggers   bool
	run        func(wk *worker, lo, hi int)
}

func (r *rounds) init(s spec, opts Options, model Model) {
	r.spec, r.opts = s, opts
	r.round = pass{span: string(model) + ".round", step: "round", triggers: true, run: r.roundRange}
	r.rangeFn = r.rangeWorker
}

func (r *rounds) Name() string { return r.spec.name }

// Values materializes the property array into a copy the engine keeps and
// overwrites on the next call.
func (r *rounds) Values() []float64 {
	r.valsCopy = r.vals.materialize(r.valsCopy)
	return r.valsCopy
}

// patchShare bounds a patch: once the lists that would bring a vector up
// to date name more than 1/patchShare of its vertices, one memmove of the
// whole vector is cheaper than their scattered writes (EXPERIMENTS.md,
// "Extension in place": at 2^18 vertices a warm memmove matches the
// patch of a tenth of them, and the cold vector of a published epoch
// favours the patch less).
const patchShare = 8

// ValuesSince writes the property array into dst's storage, which the
// caller owns: only the vertices the record names, when dst already holds
// the values of phase `of` (a number an earlier call returned) and the
// record covers the phases since, and every value otherwise. It returns
// dst, the number of the phase whose values it now holds, and how many
// slots it wrote.
func (r *rounds) ValuesSince(dst []float64, of uint64) ([]float64, uint64, int) {
	if !r.patchable(dst, of) {
		dst = r.vals.materialize(dst)
		return dst, r.gen, len(dst)
	}
	written := 0
	for g := of + 1; g <= r.gen; g++ {
		for _, v := range r.logs[g%2] {
			dst[v] = r.vals.at(int(v))
		}
		written += len(r.logs[g%2])
	}
	return dst, r.gen, written
}

// patchable reports whether the record can bring dst, holding the values
// of phase of, up to date, and whether that beats copying every value:
// the record is kept, of is a phase since the last RestoreState and one of
// the last two, dst has every vertex's slot, and the lists are short.
func (r *rounds) patchable(dst []float64, of uint64) bool {
	if !r.track || of < r.oldest || of > r.gen || r.gen-of > 2 || len(dst) != len(r.vals) {
		return false
	}
	named := 0
	for g := of + 1; g <= r.gen; g++ {
		if r.unlisted[g%2] {
			return false
		}
		named += len(r.logs[g%2])
	}
	return named*patchShare <= len(r.vals)
}

// note records that v's value bits changed (see changed); plain as in
// frontier.markOne.
func (r *rounds) note(v graph.NodeID, plain bool) {
	if r.track {
		r.changed.markOne(v, plain)
	}
}

func (r *rounds) Stats() Stats { return r.stats }

// begin opens a phase over g, whose vertices vals already covers: zeroed
// stats and counters, an empty frontier of g's size (whatever a phase that
// died mid-pass left marked is dropped here), and every worker's accessor
// bound to g's backing.
func (r *rounds) begin(g ds.Graph) {
	threads := r.opts.threads()
	r.stats = Stats{}
	r.ranges = r.ranges[:0]
	r.csr, r.n = flatCSROf(g), g.NumNodes()
	r.front = r.front[:0].sized(r.n)
	if r.track {
		r.changed = r.changed.sized(r.n)
	}
	for len(r.workers) < threads {
		r.workers = append(r.workers, worker{})
	}
	for w := range r.workers {
		wk := &r.workers[w]
		wk.ctx.bind(g, r.csr)
		wk.ctx.edges, wk.processed, wk.triggered = 0, 0, 0
	}
}

// end closes the phase: the workers' counters become its stats, and with
// WorkerTiming on its range records and their per-worker busy sums.
func (r *rounds) end() {
	for w := range r.workers {
		wk := &r.workers[w]
		r.stats.Processed += wk.processed
		r.stats.EdgesTraversed += wk.ctx.edges
		wk.ctx.bind(nil, nil) // do not pin the graph between batches
	}
	r.csr = nil
	r.gen++
	if r.track {
		// A phase that changed more vertices than a patch may write is not
		// listed: the publish copies every value after it anyway.
		g := r.gen % 2
		if r.changed.count()*patchShare <= len(r.vals) {
			r.logs[g], r.unlisted[g] = r.changed.drain(r.logs[g]), false
		} else {
			clear(r.changed)
			r.logs[g], r.unlisted[g] = r.logs[g][:0], true
		}
	}
	if r.opts.WorkerTiming {
		r.busy = r.busy[:0]
		for range r.opts.threads() {
			r.busy = append(r.busy, 0)
		}
		for i := range r.ranges {
			r.busy[r.ranges[i].Worker] += int64(r.ranges[i].Dur)
		}
		r.stats.Ranges, r.stats.WorkerBusyNS = r.ranges, r.busy
	}
}

// run is one pass: p's body over every range of cuts, joined. With
// WorkerTiming on it first reserves the pass's range records, one per
// range, so the workers write them without growing a shared slice.
func (r *rounds) run(p *pass, cuts []int) {
	r.pass, r.plain = p, len(cuts) == 2
	if r.opts.WorkerTiming {
		r.base = len(r.ranges)
		for range cuts[1:] {
			r.ranges = append(r.ranges, Range{})
		}
	}
	graph.ParallelRanges(cuts, r.rangeFn)
}

// rangeWorker is one worker's share of a pass: the body, and with
// WorkerTiming on the range's record around it.
//
// saga:hotpath
func (r *rounds) rangeWorker(w, lo, hi int) {
	p, wk := r.pass, &r.workers[w]
	if !r.opts.WorkerTiming {
		p.run(wk, lo, hi)
		return
	}
	t0 := time.Now() // saga:allow determinism -- range records feed busy-time metrics and traces only; never values or frontier order.
	edges0, trig0 := wk.ctx.edges, wk.triggered
	p.run(wk, lo, hi)
	// Iterations counts completed passes and, like base, is
	// coordinator-owned and stable while this pass's workers run —
	// race-free to read.
	rg := &r.ranges[r.base+w]
	*rg = Range{Pass: p.span, StepKey: p.step, Step: r.stats.Iterations + 1, Worker: w, Vertices: hi - lo,
		CountKey: "edges", Count: wk.ctx.edges - edges0, Start: t0}
	if p.triggers {
		rg.CountKey, rg.Count = "triggered", wk.triggered-trig0
	}
	rg.Dur = time.Since(t0) // saga:allow determinism -- range records only.
}

// seedAll makes every vertex the first round's frontier: an FS
// label-propagation phase, and an INC phase whose |V| moved.
func (r *rounds) seedAll() {
	r.curr = r.curr[:0]
	for v := 0; v < r.n; v++ {
		r.curr = append(r.curr, graph.NodeID(v))
	}
}

// relax is the paper's Algorithm 1 from line 6 on: a first round over
// curr, then rounds over whatever the one before triggered, until no
// vertex triggers. Each round re-executes lines 9-15 for every vertex of
// curr, in place, and replaces curr by the drain of what its workers
// marked (line 14's visited test and line 20's reset in one structure).
// It is partitioned by degree prefix sum, so one hub's edge volume is a
// worker's whole share instead of serializing a uniform range.
func (r *rounds) relax() {
	for {
		r.cuts = balancedCuts(r.cuts, len(r.curr), r.opts.threads(), r.pushWeight)
		r.run(&r.round, r.cuts)
		r.curr = r.front.drain(r.curr)
		r.stats.Iterations++
		if len(r.curr) == 0 {
			return
		}
	}
}

// pushWeight is the partition weight of frontier entry i: the edge volume
// a trigger of that vertex would push along.
func (r *rounds) pushWeight(i int) int64 {
	ctx, v := &r.workers[0].ctx, r.curr[i]
	d := ctx.outDegree(v)
	if r.spec.pushBoth {
		d += ctx.inDegree(v)
	}
	return int64(d)
}

// pullCuts cuts a sweep in which every vertex pulls over its in-edges (a
// PageRank pull pass, a bottom-up BFS level): by in-degree prefix sum on
// the flat mirror, where a degree is two array loads; uniformly on the
// interface path, rather than add 2n degree calls to every sweep.
func (r *rounds) pullCuts() {
	if r.csr != nil {
		r.cuts = balancedCuts(r.cuts, r.n, r.opts.threads(), r.inWeight)
	} else {
		r.cuts = graph.UniformCuts(r.cuts, r.n, r.opts.threads())
	}
}

func (r *rounds) inWeight(i int) int64 { return int64(r.csr.InDegree(graph.NodeID(i))) }

// roundRange is relax's range body: the algorithm's round body over the
// range's share of the frontier.
//
// saga:hotpath
func (r *rounds) roundRange(wk *worker, lo, hi int) {
	r.spec.round(r, wk, r.curr[lo:hi])
	wk.processed += uint64(hi - lo)
}

// settle stores v's recomputed value, notes it in the changed-vertex
// record if its bits moved, and, when it moved by more than the
// triggering threshold (0: any change), pushes v's neighbors.
//
// saga:hotpath
func (r *rounds) settle(wk *worker, v graph.NodeID, newv float64) {
	old := r.vals.get(int(v))
	r.vals.store(int(v), newv, r.plain)
	if r.track && math.Float64bits(newv) != math.Float64bits(old) {
		r.changed.markOne(v, r.plain)
	}
	if abs(newv-old) > r.eps {
		r.push(wk, v)
	}
}

// push marks the push-direction neighbors of a triggered vertex for the
// next round.
//
// saga:hotpath
func (r *rounds) push(wk *worker, v graph.NodeID) {
	wk.triggered++
	outs, ins, scratch := wk.ctx.pushRuns(v, r.spec.pushBoth, wk.pushBuf)
	wk.pushBuf = scratch
	wk.ctx.edges += uint64(len(outs) + len(ins))
	r.front.markRun(outs, r.plain)
	r.front.markRun(ins, r.plain)
}
