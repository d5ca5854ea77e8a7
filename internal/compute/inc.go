package compute

import (
	"sync/atomic"
	"time"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
	"sagabench/internal/trace"
)

// incEngine implements the paper's Algorithm 1: incremental computation via
// processing amortization (vertex values persist across batches; only new
// vertices are initialized) and selective triggering (recomputation starts
// from the batch-affected vertices and propagates only changes larger than
// the triggering threshold, frontier round by frontier round, until no
// vertex triggers).
type incEngine struct {
	spec spec
	opts Options

	vals values
	// contrib is the contribution vector of degreeSensitive specs
	// (PageRank), under the invariant contrib[u] == contribOf(vals[u],
	// outdeg(u)) whenever a round runs. It is derived state — not part
	// of State — kept true at the only three places either side can
	// move: the phase start re-derives the slots new to the vector and
	// those of the batch's endpoints (the only vertices whose out-degree
	// a batch can change), every round writes it beside vals, and
	// RestoreState empties it, which makes every slot new to the next
	// phase.
	contrib values
	// saga:allow atomicmix -- phase-separated: parallel rounds CAS/Load visited, plain access only in the sequential reset/seed phases between rounds.
	visited  []uint32
	stats    Stats
	valsCopy []float64

	// pendingInvalid holds the deletion-invalidated cone awaiting the
	// next compute phase (see trim.go).
	pendingInvalid []graph.NodeID

	// lastN is the vertex count of the previous compute phase, used by
	// globalN algorithms to detect |V| growth (see PerformAlg).
	lastN int

	// Frontier-round scratch: per-worker push buffers, the edge-balanced
	// range cuts, and two concat destinations that ping-pong so the round
	// being consumed is never the round being written. The destination
	// the first round does not write doubles as the scratch in which a
	// phase assembles a widened first frontier.
	push  pushBufs
	cuts  []int
	front [2][]graph.NodeID
	flip  int

	// The phase in flight, as the round workers see it: PerformAlg sets
	// g/csr/n/eps once, processRound sets the frontier per round — curr,
	// or with currAll every vertex 0..n-1 without the list being built.
	// Workers are a method bound once (roundFn) over this state instead
	// of a closure per round, which would escape through parallelRanges
	// and allocate.
	g       ds.Graph
	csr     *graph.CSR
	n       int
	eps     float64
	curr    []graph.NodeID
	currAll bool
	workers []incWorker
	roundFn func(w, lo, hi int)

	// clock accumulates per-worker busy time across the phase's rounds;
	// tr scopes this phase's worker spans to the current batch trace (zero
	// value = tracing off).
	clock workerClock
	tr    trace.Ctx
}

// incWorker is one worker slot's state across the rounds of a phase.
type incWorker struct {
	ctx                  recomputeCtx
	pushBuf              []graph.Neighbor
	processed, triggered uint64
}

func newIncEngine(s spec, opts Options) *incEngine {
	return &incEngine{spec: s, opts: opts}
}

func (e *incEngine) Name() string { return e.spec.name }
func (e *incEngine) Model() Model { return INC }

// Values materializes the property array.
func (e *incEngine) Values() []float64 {
	e.valsCopy = e.vals.materialize(e.valsCopy)
	return e.valsCopy
}

func (e *incEngine) Stats() Stats { return e.stats }

// SetTrace implements Traceable: worker spans of the next PerformAlg are
// recorded under ctx. The pipeline re-arms it every batch; the zero Ctx
// disables recording.
func (e *incEngine) SetTrace(ctx trace.Ctx) { e.tr = ctx }

// HandlesDeletions implements Engine: PageRank re-converges natively, and
// the monotone algorithms repair through KickStarter-style trimming
// (NotifyDeletions in trim.go).
func (e *incEngine) HandlesDeletions() bool { return e.spec.deletionSafe || e.spec.tight != nil }

// PerformAlg implements Engine.
func (e *incEngine) PerformAlg(g ds.Graph, affected []graph.NodeID) {
	n := g.NumNodes()
	threads := e.opts.threads()
	if e.opts.WorkerTiming {
		e.clock.reset(threads)
	}
	e.stats = Stats{}
	// Lines 2-4: initialize new vertices only (processing amortization —
	// old vertices keep the previous batch's values).
	//
	// PageRank's fresh value depends on |V|: paper line 4 assigns 1/|V|
	// at the current vertex count.
	for v := len(e.vals); v < n; v++ {
		e.vals = append(e.vals, 0)
		e.vals.put(v, e.spec.initValue(graph.NodeID(v), n))
	}
	if e.spec.hasSource && int(e.opts.Source) < n {
		e.vals.put(int(e.opts.Source), e.spec.sourceValue)
	}
	for len(e.visited) < n {
		e.visited = append(e.visited, 0)
	}

	if e.roundFn == nil {
		e.roundFn = e.roundRange
	}
	for len(e.workers) < threads {
		e.workers = append(e.workers, incWorker{})
	}
	e.g, e.csr, e.n, e.eps = g, flatCSROf(g), n, e.spec.epsilon(e.opts, n)
	for w := range e.workers {
		wk := &e.workers[w]
		wk.ctx.g, wk.ctx.csr, wk.ctx.vals, wk.ctx.numNodes = g, e.csr, e.vals, n
		wk.ctx.edges, wk.processed, wk.triggered = 0, 0, 0
	}
	if e.spec.degreeSensitive {
		e.refreshContrib(affected)
	}

	// A widened first frontier is assembled in the ping-pong destination
	// the first round does not write; the second round, which does, no
	// longer needs it.
	seed := e.front[e.flip^1][:0]
	widened, all := false, false

	// For globalN algorithms (PageRank) |V| is an input to every vertex's
	// function — the base term 0.15/|V| — so a vertex-count change
	// affects all vertices, not just the batch's endpoints. Widening the
	// affected set here keeps never-touched vertices (ID gaps with no
	// edges) and settled vertices correct as the graph grows; selective
	// triggering still cuts the propagation off quickly because values
	// start near the fixpoint. The first round then runs over 0..n-1
	// directly (currAll); no list is built.
	if e.spec.globalN && n != e.lastN {
		all = true
	} else if e.spec.degreeSensitive && len(affected) > 0 {
		// An inserted or deleted edge (u,v) changes u's out-degree, an
		// input to the rank of every OTHER out-neighbor of u — vertices
		// that are not batch endpoints. Pull the out-neighborhood of the
		// affected set into the first round; a recompute whose value does
		// not move triggers nothing, so the over-approximation is cheap.
		//
		// Deduplication reuses the engine's visited bitvector (this
		// section is single-threaded, so plain stores suffice) instead of
		// allocating a map per batch; the marks are cleared before the
		// frontier rounds, which rely on visited being all-zero.
		for _, v := range affected {
			if int(v) >= n {
				continue // no state to recompute; roundRange skips these too
			}
			if e.visited[v] == 0 {
				e.visited[v] = 1
				seed = append(seed, v)
			}
		}
		ctx := &e.workers[0].ctx
		for _, v := range affected {
			if int(v) >= n {
				continue
			}
			var outs []graph.Neighbor
			outs, ctx.buf = outRunOf(g, e.csr, v, ctx.buf)
			for _, nb := range outs {
				if e.visited[nb.ID] == 0 {
					e.visited[nb.ID] = 1
					seed = append(seed, nb.ID)
				}
			}
		}
		for _, v := range seed {
			e.visited[v] = 0
		}
		widened = true
	}
	e.lastN = n

	// Deletion-invalidated vertices join the batch's affected set (their
	// values were reset by NotifyDeletions and must rebuild first); a
	// round over every vertex has them already.
	if len(e.pendingInvalid) > 0 && !all {
		if !widened {
			seed = append(seed, affected...)
			widened = true
		}
		seed = append(seed, e.pendingInvalid...)
	}
	e.pendingInvalid = e.pendingInvalid[:0]
	if widened {
		e.front[e.flip^1] = seed // keep the growth
		affected = seed
	}

	// Lines 6-15: first pass over the affected vertices.
	e.currAll = all
	curr := e.processRound(affected)
	e.currAll = false
	e.stats.Iterations = 1
	// Lines 19-25: propagate until no vertex triggers.
	for len(curr) > 0 {
		curr = e.processRound(curr)
		e.stats.Iterations++
	}
	for w := range e.workers {
		wk := &e.workers[w]
		e.stats.Processed += wk.processed
		e.stats.Triggered += wk.triggered
		e.stats.EdgesTraversed += wk.ctx.edges
		wk.ctx.g, wk.ctx.csr = nil, nil // do not pin the graph between batches
	}
	e.g, e.csr, e.curr = nil, nil, nil
	e.stats.Skipped = e.stats.Processed - e.stats.Triggered
	if e.opts.WorkerTiming {
		e.stats.WorkerBusyNS = e.clock.busy
	}
}

// refreshContrib re-establishes the contrib invariant at phase start: for
// the slots new to the vector (new vertices; all of them on the first
// phase and after RestoreState) and for the batch's endpoints, whose
// out-degree the update phase may have changed. Sequential, so plain
// stores.
func (e *incEngine) refreshContrib(endpoints []graph.NodeID) {
	ctx := &e.workers[0].ctx
	from := len(e.contrib)
	if from < e.n {
		// One append of the whole extension: a jump to a much larger n
		// is then sized exactly instead of by doubling past it.
		e.contrib = append(e.contrib, make(values, e.n-from)...)
	}
	ctx.fillContrib(e.contrib, e.vals, from, e.n)
	for _, u := range endpoints {
		if int(u) < from {
			e.contrib.put(int(u), contribOf(e.vals.get(int(u)), ctx.outDegree(u)))
		}
	}
	for w := range e.workers {
		e.workers[w].ctx.contrib = e.contrib
	}
}

// frontierAt is entry i of the round's frontier.
func (e *incEngine) frontierAt(i int) graph.NodeID {
	if e.currAll {
		return graph.NodeID(i)
	}
	return e.curr[i]
}

// roundWeight is the partition weight of frontier entry i: the edge
// volume a trigger of that vertex would push along.
func (e *incEngine) roundWeight(i int) int64 {
	v := e.frontierAt(i)
	if int(v) >= e.n {
		return 0
	}
	if e.csr != nil {
		d := e.csr.OutDegree(v)
		if e.spec.pushBoth {
			d += e.csr.InDegree(v)
		}
		return int64(d)
	}
	d := e.g.OutDegree(v)
	if e.spec.pushBoth {
		d += e.g.InDegree(v)
	}
	return int64(d)
}

// processRound re-executes lines 9-15 for every vertex in curr,
// returning the next frontier. Values are written in place; the
// visited bitvector (CAS-guarded, line 14) deduplicates pushes.
//
// The round is partitioned by degree prefix sum (one hub's edge
// volume is a worker's whole share instead of serializing a uniform
// range) and workers push into per-worker buffers merged by a
// two-pass concatenation — no lock on the next frontier.
func (e *incEngine) processRound(curr []graph.NodeID) []graph.NodeID {
	e.curr = curr
	size := len(curr)
	if e.currAll {
		size = e.n
	}
	e.cuts = balancedCuts(e.cuts, size, e.opts.threads(), e.roundWeight)
	k := len(e.cuts) - 1
	e.push.reset(k)
	parallelRanges(e.cuts, e.roundFn)
	// Merge into the ping-pong destination the caller is not reading.
	next := e.push.concat(e.front[e.flip][:0], k)
	e.front[e.flip] = next
	e.flip ^= 1
	// Line 20: visited <- {false}. Only entries in next were set.
	for _, v := range next {
		e.visited[v] = 0
	}
	return next
}

// roundRange is one worker's share of a round.
func (e *incEngine) roundRange(w, lo, hi int) {
	var t0 time.Time
	if e.opts.WorkerTiming {
		t0 = time.Now() // saga:allow determinism -- worker busy-time metric and trace spans only; never feeds values or frontier order.
	}
	sp := e.tr.Worker("inc.round", w)
	wk := &e.workers[w]
	ctx := &wk.ctx
	local := e.push.bufs[w]
	pushBuf := wk.pushBuf
	var nProc, nTrig uint64
	for i := lo; i < hi; i++ {
		v := e.frontierAt(i)
		if int(v) >= e.n {
			// Callers may pass endpoints the graph never
			// materialized (e.g. no-op deletes of unseen
			// vertices); there is no state to recompute.
			continue
		}
		nProc++
		old := e.vals.get(int(v))
		newv := e.spec.recompute(ctx, v)
		if e.spec.hasSource && v == e.opts.Source {
			newv = e.spec.sourceValue
		}
		e.vals.set(int(v), newv)
		if e.spec.degreeSensitive {
			e.contrib.set(int(v), contribOf(newv, ctx.outDegree(v)))
		}
		trigger := false
		if e.eps > 0 {
			d := newv - old
			if d < 0 {
				d = -d
			}
			trigger = d > e.eps
		} else {
			trigger = newv != old
		}
		if !trigger {
			continue
		}
		nTrig++
		outs, ins, scratch := pushRuns(e.g, e.csr, v, e.spec.pushBoth, pushBuf)
		pushBuf = scratch
		ctx.edges += uint64(len(outs) + len(ins))
		for _, nb := range outs {
			if atomic.CompareAndSwapUint32(&e.visited[nb.ID], 0, 1) {
				local = append(local, nb.ID)
			}
		}
		for _, nb := range ins {
			if atomic.CompareAndSwapUint32(&e.visited[nb.ID], 0, 1) {
				local = append(local, nb.ID)
			}
		}
	}
	wk.processed += nProc
	wk.triggered += nTrig
	wk.pushBuf = pushBuf
	e.push.bufs[w] = local
	// Iterations counts completed rounds and is coordinator-owned,
	// stable while this round's workers run — race-free to read.
	sp.SetInt("round", int64(e.stats.Iterations+1))
	sp.SetInt("vertices", int64(hi-lo))
	sp.SetInt("triggered", int64(nTrig))
	sp.End()
	if e.opts.WorkerTiming {
		e.clock.add(w, time.Since(t0)) // saga:allow determinism -- worker busy-time metric only.
	}
}
