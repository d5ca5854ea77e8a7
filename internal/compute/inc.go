package compute

import (
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
//
// Every round walks its frontier in ascending vertex order (see frontier):
// values are relaxed in place, so a round is a Gauss–Seidel sweep whose
// result at one thread depends on the set of affected vertices and not on
// the order a batch or a push discovered them in.
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
	contrib  values
	stats    Stats
	valsCopy []float64

	// pendingInvalid holds the deletion-invalidated cone awaiting the
	// next compute phase (see trim.go).
	pendingInvalid []graph.NodeID

	// lastN is the vertex count of the previous compute phase, used by
	// globalN algorithms to detect |V| growth (see PerformAlg).
	lastN int

	// The phase in flight, as the round workers see it. PerformAlg sets
	// g/csr/n/eps and the round body once; each round then consumes curr
	// — the drain of front, which the round before it (or the seeding)
	// marked — over the edge-balanced cuts. plain says the round is a
	// single range, hence a sequential stretch: plain stores and marks.
	// Workers are a method bound once (roundFn) over this state instead
	// of a closure per round, which would escape through parallelRanges
	// and allocate.
	g       ds.Graph
	csr     *graph.CSR
	n       int
	eps     float64
	front   frontier
	curr    []graph.NodeID
	cuts    []int
	plain   bool
	body    func(e *incEngine, wk *incWorker, list []graph.NodeID)
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
	e.front = e.front.sized(n)

	if e.roundFn == nil {
		e.roundFn = e.roundRange
	}
	for len(e.workers) < threads {
		e.workers = append(e.workers, incWorker{})
	}
	e.g, e.csr, e.n, e.eps = g, flatCSROf(g), n, e.spec.epsilon(e.opts, n)
	// The round body is bound here, once per phase, so the vertex loop
	// forks on neither the backing nor the algorithm.
	e.body = (*incEngine).roundGraph
	if e.csr != nil {
		e.body = e.spec.incCSR
	}
	for w := range e.workers {
		wk := &e.workers[w]
		wk.ctx.g, wk.ctx.csr, wk.ctx.vals, wk.ctx.numNodes = g, e.csr, e.vals, n
		wk.ctx.edges, wk.processed, wk.triggered = 0, 0, 0
	}

	// For globalN algorithms (PageRank) |V| is an input to every vertex's
	// function — the base term 0.15/|V| — so a vertex-count change
	// affects all vertices, not just the batch's endpoints. Widening the
	// affected set here keeps never-touched vertices (ID gaps with no
	// edges) and settled vertices correct as the graph grows; selective
	// triggering still cuts the propagation off quickly because values
	// start near the fixpoint.
	all := e.spec.globalN && n != e.lastN
	e.lastN = n
	if e.spec.degreeSensitive {
		e.growContrib(all)
	}
	if all {
		e.curr = e.curr[:0]
		for v := 0; v < n; v++ {
			e.curr = append(e.curr, graph.NodeID(v))
		}
	} else {
		// Callers may pass endpoints the graph never materialized (no-op
		// deletes of unseen vertices); there is no state to recompute.
		e.seed(affected)
		if e.spec.degreeSensitive && len(affected) > 0 {
			e.widen()
		}
		// Deletion-invalidated vertices join the batch's affected set
		// (their values were reset by NotifyDeletions and must rebuild
		// first); a round over every vertex has them already.
		e.seed(e.pendingInvalid)
		e.curr = e.front.drain(e.curr)
	}
	e.pendingInvalid = e.pendingInvalid[:0]

	// Lines 6-15: first pass over the affected vertices; lines 19-25:
	// propagate until no vertex triggers.
	for {
		e.round()
		e.stats.Iterations++
		if len(e.curr) == 0 {
			break
		}
	}
	for w := range e.workers {
		wk := &e.workers[w]
		e.stats.Processed += wk.processed
		e.stats.Triggered += wk.triggered
		e.stats.EdgesTraversed += wk.ctx.edges
		wk.ctx.g, wk.ctx.csr = nil, nil // do not pin the graph between batches
	}
	e.g, e.csr = nil, nil
	e.stats.Skipped = e.stats.Processed - e.stats.Triggered
	if e.opts.WorkerTiming {
		e.stats.WorkerBusyNS = e.clock.busy
	}
}

// seed marks the vertices of vs that the graph has.
func (e *incEngine) seed(vs []graph.NodeID) {
	for _, v := range vs {
		if int(v) < e.n {
			e.front.mark(v)
		}
	}
}

// growContrib re-establishes the contrib invariant at phase start for the
// slots new to the vector (new vertices; all of them on the first phase
// and after RestoreState) or, when the phase recomputes every vertex, for
// all of them. The batch's endpoints are widen's. Sequential, so plain
// stores.
func (e *incEngine) growContrib(all bool) {
	from := len(e.contrib)
	if from < e.n {
		// One append of the whole extension: a jump to a much larger n
		// is then sized exactly instead of by doubling past it.
		e.contrib = append(e.contrib, make(values, e.n-from)...)
	}
	if all {
		from = 0
	}
	e.workers[0].ctx.fillContrib(e.contrib, e.vals, from, e.n)
	for w := range e.workers {
		e.workers[w].ctx.contrib = e.contrib
	}
}

// widen walks the marked batch endpoints in ascending order. An inserted
// or deleted edge (u,v) changes u's out-degree — so u's contribution is
// re-derived here — and with it an input to the rank of every OTHER
// out-neighbor of u, vertices that are not batch endpoints: their
// out-neighborhoods join the first round. A recompute whose value does
// not move triggers nothing, so the over-approximation is cheap.
func (e *incEngine) widen() {
	ctx := &e.workers[0].ctx
	e.curr = e.front.drain(e.curr)
	for _, v := range e.curr {
		var outs []graph.Neighbor
		outs, ctx.buf = outRunOf(e.g, e.csr, v, ctx.buf)
		e.contrib.put(int(v), contribOf(e.vals.get(int(v)), len(outs)))
		e.front.mark(v)
		e.front.markRun(outs, true)
	}
}

// roundWeight is the partition weight of frontier entry i: the edge
// volume a trigger of that vertex would push along.
func (e *incEngine) roundWeight(i int) int64 {
	v := e.curr[i]
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

// round re-executes lines 9-15 for every vertex in curr, in place, and
// replaces curr by the next frontier: the drain of what the workers
// marked (line 14's visited test and line 20's reset in one structure).
//
// The round is partitioned by degree prefix sum, so one hub's edge volume
// is a worker's whole share instead of serializing a uniform range.
func (e *incEngine) round() {
	e.cuts = balancedCuts(e.cuts, len(e.curr), e.opts.threads(), e.roundWeight)
	e.plain = len(e.cuts) == 2
	parallelRanges(e.cuts, e.roundFn)
	e.curr = e.front.drain(e.curr)
}

// roundRange is one worker's share of a round: timing and the trace span
// around the body bound for this phase.
//
// saga:hotpath
func (e *incEngine) roundRange(w, lo, hi int) {
	var t0 time.Time
	if e.opts.WorkerTiming {
		t0 = time.Now() // saga:allow determinism -- worker busy-time metric and trace spans only; never feeds values or frontier order.
	}
	sp := e.tr.Worker("inc.round", w)
	wk := &e.workers[w]
	trig0 := wk.triggered
	e.body(e, wk, e.curr[lo:hi])
	wk.processed += uint64(hi - lo)
	// Iterations counts completed rounds and is coordinator-owned,
	// stable while this round's workers run — race-free to read.
	sp.SetInt("round", int64(e.stats.Iterations+1))
	sp.SetInt("vertices", int64(hi-lo))
	sp.SetInt("triggered", int64(wk.triggered-trig0))
	sp.End()
	if e.opts.WorkerTiming {
		e.clock.add(w, time.Since(t0)) // saga:allow determinism -- worker busy-time metric only.
	}
}

// roundGraph is the round body over the structure's interface, for every
// algorithm: the adjacency calls dominate it, so the vertex function
// stays behind spec.recompute.
//
// saga:hotpath
func (e *incEngine) roundGraph(wk *incWorker, list []graph.NodeID) {
	ctx := &wk.ctx
	for _, v := range list {
		newv := e.spec.recompute(ctx, v)
		if e.spec.hasSource && v == e.opts.Source {
			newv = e.spec.sourceValue
		}
		if e.spec.degreeSensitive {
			e.contrib.store(int(v), contribOf(newv, e.g.OutDegree(v)), e.plain)
		}
		e.settle(wk, v, newv)
	}
}

// settle stores v's recomputed value and, when it moved by more than the
// triggering threshold (0: any change), pushes v's neighbors.
//
// saga:hotpath
func (e *incEngine) settle(wk *incWorker, v graph.NodeID, newv float64) {
	old := e.vals.get(int(v))
	e.vals.store(int(v), newv, e.plain)
	if abs(newv-old) > e.eps {
		e.push(wk, v)
	}
}

// push marks the push-direction neighbors of a triggered vertex for the
// next round.
//
// saga:hotpath
func (e *incEngine) push(wk *incWorker, v graph.NodeID) {
	wk.triggered++
	outs, ins, scratch := pushRuns(e.g, e.csr, v, e.spec.pushBoth, wk.pushBuf)
	wk.pushBuf = scratch
	wk.ctx.edges += uint64(len(outs) + len(ins))
	e.front.markRun(outs, e.plain)
	e.front.markRun(ins, e.plain)
}
