package compute

import (
	"math"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// incEngine implements the paper's Algorithm 1: incremental computation via
// processing amortization (vertex values persist across batches; only new
// vertices are initialized) and selective triggering (recomputation starts
// from the batch-affected vertices and propagates only changes larger than
// the triggering threshold, frontier round by frontier round, until no
// vertex triggers) — the seeding is here, the rounds are rounds.relax.
type incEngine struct {
	rounds

	// contrib is the contribution vector of degreeSensitive specs
	// (PageRank), under the invariant contrib[u] == contribOf(vals[u],
	// outdeg(u)) whenever a round runs. It is derived state — not part
	// of State — kept true at the only three places either side can
	// move: the phase start re-derives the slots new to the vector and
	// those of the batch's endpoints (the only vertices whose out-degree
	// a batch can change), every round writes it beside vals (through
	// the workers' accessors, which all hold this slice), and
	// RestoreState empties it, which makes every slot new to the next
	// phase.
	contrib values

	// pendingInvalid holds the deletion-invalidated cone awaiting the
	// next compute phase (see trim.go).
	pendingInvalid []graph.NodeID

	// lastN is the vertex count of the previous compute phase, used by
	// globalN algorithms to detect |V| growth (see PerformAlg).
	lastN int
}

func newIncEngine(s spec, opts Options) *incEngine {
	e := &incEngine{}
	e.init(s, opts, INC)
	e.track = true
	return e
}

func (e *incEngine) Model() Model { return INC }

// HandlesDeletions implements Engine: PageRank re-converges natively, and
// the monotone algorithms repair through KickStarter-style trimming
// (NotifyDeletions in trim.go).
func (e *incEngine) HandlesDeletions() bool { return e.spec.deletionSafe || e.spec.tight != nil }

// PerformAlg implements Engine.
func (e *incEngine) PerformAlg(g ds.Graph, affected []graph.NodeID) {
	n := g.NumNodes()
	// Lines 2-4: initialize new vertices only (processing amortization —
	// old vertices keep the previous batch's values).
	//
	// PageRank's fresh value depends on |V|: paper line 4 assigns 1/|V|
	// at the current vertex count.
	for v := len(e.vals); v < n; v++ {
		e.vals = append(e.vals, 0)
		e.vals.put(v, e.spec.initValue(graph.NodeID(v), n))
	}
	e.begin(g)
	if src := e.opts.Source; e.spec.hasSource && int(src) < n && math.Float64bits(e.vals.get(int(src))) != math.Float64bits(e.spec.sourceValue) {
		e.vals.put(int(src), e.spec.sourceValue)
		e.note(src, true)
	}
	e.eps = e.spec.epsilon(e.opts, n)

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
		e.seedAll()
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

	e.relax()
	e.end()
	for w := range e.workers {
		e.stats.Triggered += e.workers[w].triggered
	}
	e.stats.Skipped = e.stats.Processed - e.stats.Triggered
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
	e.workers[0].ctx.fillContrib(e.contrib, e.vals, nil, from, e.n)
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
		outs, _, ctx.buf = ctx.pushRuns(v, false, ctx.buf)
		e.contrib.put(int(v), contribOf(e.vals.get(int(v)), len(outs)))
		e.front.mark(v)
		e.front.markRun(outs, true)
	}
}
