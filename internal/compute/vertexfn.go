package compute

import (
	"math"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// inf is the identity for min-reductions over distances.
var inf = math.Inf(1)

// recomputeCtx is a worker's adjacency and degree accessor, and the one
// place where the kernels' reads fork between the flat compute view and
// the structure's interface: the round bodies and the FS kernels read
// every run and degree through it, on every backing.
type recomputeCtx struct {
	g   ds.Graph
	csr *graph.CSR // non-nil on the flat compute-view path
	// lender is g when it hands out its adjacency in place
	// (ds.TwoCopy.LendsRuns): the interface path then reads the
	// structure's own slices, as C++ SAGA-Bench walks its AS/AC vectors,
	// and only Stinger and DAH are copied out into buf.
	lender *ds.TwoCopy
	// contrib is the PageRank contribution vector (contrib[u] =
	// rank[u]/outdeg(u)); nil for every other algorithm.
	contrib values
	buf     []graph.Neighbor
	edges   uint64 // neighbor records read
}

// bind points the accessors at g's backing, once per phase.
func (ctx *recomputeCtx) bind(g ds.Graph, csr *graph.CSR) {
	ctx.g, ctx.csr, ctx.lender = g, csr, nil
	if tc, ok := g.(*ds.TwoCopy); ok && csr == nil && tc.LendsRuns() {
		ctx.lender = tc
	}
}

// inRun returns v's in-adjacency: a zero-copy CSR run on the flat path,
// the structure's own slice when it lends one, else ctx.buf filled through
// the interface. The run is read-only and valid only until the next ctx
// adjacency call.
func (ctx *recomputeCtx) inRun(v graph.NodeID) (run []graph.Neighbor) {
	switch {
	case ctx.csr != nil:
		run = ctx.csr.In(v)
	case ctx.lender != nil:
		run = ctx.lender.InRun(v)
	default:
		ctx.buf = ctx.g.InNeigh(v, ctx.buf[:0])
		run = ctx.buf
	}
	ctx.edges += uint64(len(run))
	return run
}

// outRun is inRun for the out direction.
func (ctx *recomputeCtx) outRun(v graph.NodeID) (run []graph.Neighbor) {
	switch {
	case ctx.csr != nil:
		run = ctx.csr.Out(v)
	case ctx.lender != nil:
		run = ctx.lender.OutRun(v)
	default:
		ctx.buf = ctx.g.OutNeigh(v, ctx.buf[:0])
		run = ctx.buf
	}
	ctx.edges += uint64(len(run))
	return run
}

// pushRuns returns v's push-direction adjacency as up to two runs: the
// out-run and, when both directions propagate (CC), the in-run — zero-copy
// from the flat mirror or a lending structure. Otherwise both directions
// are copied into buf, returned as a (b is nil) and again as the scratch
// to pass next time. The caller counts the edges.
//
// saga:hotpath
func (ctx *recomputeCtx) pushRuns(v graph.NodeID, both bool, buf []graph.Neighbor) (a, b, scratch []graph.Neighbor) {
	switch {
	case ctx.csr != nil:
		a = ctx.csr.Out(v)
		if both {
			b = ctx.csr.In(v)
		}
	case ctx.lender != nil:
		a = ctx.lender.OutRun(v)
		if both {
			b = ctx.lender.InRun(v)
		}
	default:
		buf = ctx.g.OutNeigh(v, buf[:0])
		if both {
			buf = ctx.g.InNeigh(v, buf)
		}
		a = buf
	}
	return a, b, buf
}

// outDegree and inDegree are the degree reads of PageRank's contribution
// store, the frontier heuristics and the range partitioners.
func (ctx *recomputeCtx) outDegree(v graph.NodeID) int {
	if ctx.csr != nil {
		return ctx.csr.OutDegree(v)
	}
	return ctx.g.OutDegree(v)
}

func (ctx *recomputeCtx) inDegree(v graph.NodeID) int {
	if ctx.csr != nil {
		return ctx.csr.InDegree(v)
	}
	return ctx.g.InDegree(v)
}

// fillContrib is the degree accessor at range granularity: it puts
// contribOf(rank[u], outdeg(u)) into contrib[u] for u = set.at(i), i in
// [lo,hi) — plain stores, see values.put. A per-vertex accessor forking
// on the backing cannot inline (its interface call is over budget), and a
// call per vertex costs the flat path's contribution pass a tenth of the
// whole FS PageRank batch; here the fork is taken once per range.
//
// saga:hotpath
func (ctx *recomputeCtx) fillContrib(contrib, rank values, set vertexSet, lo, hi int) {
	if ctx.csr != nil {
		if deg := ctx.csr.OutDeg; deg != nil {
			for i := lo; i < hi; i++ {
				u := set.at(i)
				contrib.put(u, contribOf(rank.get(u), int(deg[u])))
			}
			return
		}
		spans := ctx.csr.OutSpans
		for i := lo; i < hi; i++ {
			u := set.at(i)
			contrib.put(u, contribOf(rank.get(u), spans[u].Len()))
		}
		return
	}
	for i := lo; i < hi; i++ {
		u := set.at(i)
		contrib.put(u, contribOf(rank.get(u), ctx.g.OutDegree(graph.NodeID(u))))
	}
}

// prSets is the degree accessor at batch granularity: it appends to
// pulled the vertices of [0,n) with a non-empty in-run, and to refilled
// those of them with out-degree > 0, both ascending. Like fillContrib it
// forks once: the flat path reads the spans and the out-degree vector,
// the interface path the structure's degrees.
func (ctx *recomputeCtx) prSets(n int, pulled, refilled []graph.NodeID) ([]graph.NodeID, []graph.NodeID) {
	if c := ctx.csr; c != nil {
		for v, s := range c.InSpans[:n] {
			if s.Len() == 0 {
				continue
			}
			u := graph.NodeID(v)
			pulled = append(pulled, u)
			if c.OutDegree(u) > 0 {
				refilled = append(refilled, u)
			}
		}
		return pulled, refilled
	}
	for v := range graph.NodeID(n) {
		if ctx.g.InDegree(v) == 0 {
			continue
		}
		pulled = append(pulled, v)
		if ctx.g.OutDegree(v) > 0 {
			refilled = append(refilled, v)
		}
	}
	return pulled, refilled
}

// spec describes one algorithm: its Table I vertex function as a round
// body, its initialization, and its INC trigger rule.
type spec struct {
	name string
	// hasSource pins opts.Source to sourceValue (BFS/SSSP/SSWP).
	hasSource   bool
	sourceValue float64
	// initValue is the reset (FS) / fresh-vertex (INC) property value;
	// uniformInit marks the ones that do not depend on v, so the FS
	// reset can hoist the call out of its fill loop.
	initValue   func(v graph.NodeID, numNodes int) float64
	uniformInit bool
	// round is a round's share under either model and on every backing:
	// recompute every vertex of list in order by pulling from its
	// neighbors, and settle it. It reads runs and degrees only through
	// wk.ctx.
	round func(r *rounds, wk *worker, list []graph.NodeID)
	// pushBoth propagates changes along both edge directions (CC treats
	// the graph as undirected connectivity).
	pushBoth bool
	// fsPullsIn marks FS kernels that read in-adjacency even though the
	// algorithm pushes one-directionally: BFS's bottom-up phase, MC's
	// pull-style label-prop recompute, and PageRank's Jacobi iteration.
	// Together with pushBoth it decides NeedsInAdjacency for the FS
	// model; only the delta-stepping path kernels (SSSP, SSWP) leave
	// both unset.
	fsPullsIn bool
	// fsOutDegreesOnly marks FS kernels that read out-degrees but never
	// out-runs: PageRank's Jacobi iteration pulls over in-runs, normalised
	// by each source's out-degree. It decides NeedsOutAdjacency.
	fsOutDegreesOnly bool
	// epsilon is the INC triggering threshold given the current vertex
	// count; 0 means any change triggers (the monotone algorithms).
	epsilon func(opts Options, numNodes int) float64
	// deletionSafe marks algorithms whose INC recompute re-converges
	// after edge deletions without help (non-monotone contractions like
	// PageRank).
	deletionSafe bool
	// weighted marks algorithms whose values depend on edge weights, so
	// an overwrite that changes a stored weight can invalidate values the
	// same way a deletion can (the INC engine must be told; see
	// WeightChangeAware).
	weighted bool
	// globalN marks algorithms whose vertex function takes |V| as an
	// input (PageRank's base term): a vertex-count change affects every
	// vertex, so the INC engine widens the affected set to all vertices
	// whenever NumNodes grows.
	globalN bool
	// degreeSensitive marks algorithms whose vertex function reads a
	// neighbor's degree (PageRank normalizes each in-neighbor's rank by
	// its out-degree): an inserted or deleted edge (u,v) then affects not
	// just u and v but every other out-neighbor of u, so the INC engine
	// widens the affected set with the out-neighbors of batch endpoints
	// and maintains the contribution vector (incEngine.contrib).
	degreeSensitive bool
	// tight reports whether valV could have been derived from valU across
	// an edge of weight w — the value-dependence test KickStarter-style
	// trimming uses to grow the invalidation cone after deletions. nil
	// for non-monotone algorithms (no trimming needed).
	tight func(valU, w, valV float64) bool
	// fsRun executes the conventional static-graph algorithm for the
	// FS model (GAP-style where GAP implements it).
	fsRun func(e *fsEngine)
}

func exactChange(Options, int) float64 { return 0 }

// prEpsilon is the PageRank triggering threshold. The paper fixes it at
// 1e-7 on graphs with millions of vertices, where ranks are ~1/|V| ≈ 2e-7
// — i.e. the trigger fires on changes of about half a rank unit. To keep
// the same looseness relative to rank magnitude on scaled graphs, the
// default tracks 0.5/|V|.
func prEpsilon(o Options, numNodes int) float64 {
	if o.Epsilon > 0 {
		return o.Epsilon
	}
	if numNodes <= 0 {
		return 1e-7
	}
	return 0.5 / float64(numNodes)
}

// specs registers the six SAGA-Bench algorithms.
var specs = map[string]spec{
	"bfs": {
		name:        "bfs",
		hasSource:   true,
		sourceValue: 0,
		initValue:   func(graph.NodeID, int) float64 { return inf },
		uniformInit: true,
		round:       roundBFS,
		epsilon:     exactChange,
		tight:       func(valU, _, valV float64) bool { return valV == valU+1 },
		fsPullsIn:   true, // direction-optimized BFS pulls in bottom-up steps
		fsRun:       fsBFS,
	},
	"cc": {
		name:      "cc",
		initValue: func(v graph.NodeID, _ int) float64 { return float64(v) },
		round:     roundCC,
		pushBoth:  true,
		epsilon:   exactChange,
		tight:     func(valU, _, valV float64) bool { return valV == valU },
		fsRun:     fsRelax,
	},
	"mc": {
		name:      "mc",
		initValue: func(v graph.NodeID, _ int) float64 { return float64(v) },
		round:     roundMC,
		epsilon:   exactChange,
		tight:     func(valU, _, valV float64) bool { return valV == valU },
		fsPullsIn: true, // rounds recompute via the in-run pull
		fsRun:     fsRelax,
	},
	"pr": {
		name:             "pr",
		initValue:        func(_ graph.NodeID, numNodes int) float64 { return 1 / float64(numNodes) },
		uniformInit:      true,
		round:            roundPR,
		epsilon:          prEpsilon,
		deletionSafe:     true,
		globalN:          true,
		degreeSensitive:  true,
		fsPullsIn:        true, // Jacobi iteration sums over in-neighbors
		fsOutDegreesOnly: true,
		fsRun:            fsPR,
	},
	"sssp": {
		name:        "sssp",
		hasSource:   true,
		sourceValue: 0,
		initValue:   func(graph.NodeID, int) float64 { return inf },
		uniformInit: true,
		round:       roundSSSP,
		epsilon:     exactChange,
		weighted:    true,
		tight:       func(valU, w, valV float64) bool { return valV == valU+w },
		fsRun:       fsSSSP,
	},
	"sswp": {
		name:        "sswp",
		hasSource:   true,
		sourceValue: inf,
		initValue:   func(graph.NodeID, int) float64 { return 0 },
		uniformInit: true,
		round:       roundSSWP,
		epsilon:     exactChange,
		weighted:    true,
		tight:       func(valU, w, valV float64) bool { return valV == math.Min(valU, w) },
		fsRun:       fsSSWP,
	},
}

// The round bodies, one per algorithm. Each recomputes the vertices of its
// share in order and settles them; the source keeps its value.

// roundBFS is Table I's v.depth <- min over inEdges(v) (e.source.depth + 1).
//
// saga:hotpath
func roundBFS(r *rounds, wk *worker, list []graph.NodeID) {
	vals := r.vals
	for _, v := range list {
		best := inf
		for _, nb := range wk.ctx.inRun(v) {
			if d := vals.get(int(nb.ID)) + 1; d < best {
				best = d
			}
		}
		if v == r.opts.Source {
			best = 0
		}
		r.settle(wk, v, best)
	}
}

// roundCC is Table I's v.value <- min(v.value, min over Edges(v) of
// e.other.value): connectivity over both directions. Labels start at the
// vertex's own ID and only fall (a trim resets a vertex to its own ID), so
// 0 is the least label any vertex can hold: a vertex labelled 0 keeps it
// and reads no run, and a pull stops at the first 0 it meets. The out-run
// is consumed before inRun, which refills the shared scratch on a copying
// store.
//
// saga:hotpath
func roundCC(r *rounds, wk *worker, list []graph.NodeID) {
	ctx := &wk.ctx
	for _, v := range list {
		best := r.vals.get(int(v))
		if best == 0 {
			continue // settling would store the 0 back and trigger nothing
		}
		if best = pullMin(ctx, ctx.outRun(v), r.vals, best); best != 0 {
			best = pullMin(ctx, ctx.inRun(v), r.vals, best)
		}
		r.settle(wk, v, best)
	}
}

// roundMC is Table I's v.value <- max(v.value, max over inEdges(v) of
// e.source.value).
//
// saga:hotpath
func roundMC(r *rounds, wk *worker, list []graph.NodeID) {
	for _, v := range list {
		r.settle(wk, v, pullMax(wk.ctx.inRun(v), r.vals, r.vals.get(int(v))))
	}
}

// roundPR is Table I's v.rank <- 0.15/|V| + 0.85 * sum over inEdges(v) of
// e.source.rank, normalized by the source's out-degree (Section V-B): the
// normalized ranks are the contribution vector, whose slot v is stored
// beside the rank.
//
// saga:hotpath
func roundPR(r *rounds, wk *worker, list []graph.NodeID) {
	ctx := &wk.ctx
	contrib, base := ctx.contrib, prBase/float64(r.n)
	for _, v := range list {
		newv := prPull(ctx.inRun(v), contrib, base)
		contrib.store(int(v), contribOf(newv, ctx.outDegree(v)), r.plain)
		r.settle(wk, v, newv)
	}
}

// roundSSSP is Table I's v.path <- min over inEdges(v) (e.source.path +
// e.weight).
//
// saga:hotpath
func roundSSSP(r *rounds, wk *worker, list []graph.NodeID) {
	vals := r.vals
	for _, v := range list {
		best := inf
		for _, nb := range wk.ctx.inRun(v) {
			if d := vals.get(int(nb.ID)) + float64(nb.Weight); d < best {
				best = d
			}
		}
		if v == r.opts.Source {
			best = 0
		}
		r.settle(wk, v, best)
	}
}

// roundSSWP is Table I's v.path <- max over inEdges(v) of
// min(e.source.path, e.weight).
//
// saga:hotpath
func roundSSWP(r *rounds, wk *worker, list []graph.NodeID) {
	vals := r.vals
	for _, v := range list {
		best := 0.0
		for _, nb := range wk.ctx.inRun(v) {
			if w := math.Min(vals.get(int(nb.ID)), float64(nb.Weight)); w > best {
				best = w
			}
		}
		if v == r.opts.Source {
			best = inf
		}
		r.settle(wk, v, best)
	}
}

// pullMin is CC's pull: it folds a run's labels into best and stops at the
// first 0, taking the records it never read back out of ctx's count.
//
// saga:hotpath
func pullMin(ctx *recomputeCtx, run []graph.Neighbor, vals values, best float64) float64 {
	for i, nb := range run {
		if nv := vals.get(int(nb.ID)); nv < best {
			if best = nv; best == 0 {
				ctx.edges -= uint64(len(run) - 1 - i) // the rest of the run is never read
				break
			}
		}
	}
	return best
}

// pullMax is MC's pull: it folds a run's values into best.
func pullMax(run []graph.Neighbor, vals values, best float64) float64 {
	for _, nb := range run {
		if nv := vals.get(int(nb.ID)); nv > best {
			best = nv
		}
	}
	return best
}

// PageRank constants (Table I).
const (
	prBase    = 0.15
	prDamping = 0.85
)

// contribOf is the share of rank r that a vertex of out-degree d passes
// along each out-edge (GAP's outgoing_contrib); a sink passes nothing.
func contribOf(r float64, d int) float64 {
	if d > 0 {
		return r / float64(d)
	}
	return 0
}

// prPull is PageRank's vertex function over the contribution vector: one
// load per in-edge, where summing rank[u]/outdeg(u) directly costs a
// degree lookup, a rank lookup and a division per edge. The FS sweep and
// the INC rounds, on the view and on the interface path, all call it;
// the FS sweep over an in-only view's ID runs inlines the same sum
// (fsEngine.prPullRange). contribOf rounds the same quotient the
// per-edge division did and the run is summed in the same order, so
// results are bit-identical to the per-edge form.
//
// saga:hotpath
func prPull(in []graph.Neighbor, contrib values, base float64) float64 {
	sum := 0.0
	for _, nb := range in {
		sum += contrib.get(int(nb.ID))
	}
	return base + prDamping*sum
}
