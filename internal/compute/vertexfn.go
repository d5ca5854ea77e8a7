package compute

import (
	"math"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// inf is the identity for min-reductions over distances.
var inf = math.Inf(1)

// recomputeCtx is per-worker state for pull-style vertex recomputation,
// and the one place where the kernels' adjacency and degree reads fork
// between the flat compute view and the structure's interface.
type recomputeCtx struct {
	g   ds.Graph
	csr *graph.CSR // non-nil on the flat compute-view path
	// lender is g when it hands out its adjacency in place
	// (ds.TwoCopy.LendsRuns): the interface path then reads the
	// structure's own slices, as C++ SAGA-Bench walks its AS/AC vectors,
	// and only Stinger and DAH are copied out into buf.
	lender *ds.TwoCopy
	vals   values
	// contrib is the PageRank contribution vector (contrib[u] =
	// rank[u]/outdeg(u)); nil for every other algorithm.
	contrib  values
	numNodes int
	buf      []graph.Neighbor
	edges    uint64 // neighbor records read
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
func (ctx *recomputeCtx) inRun(v graph.NodeID) []graph.Neighbor {
	if ctx.csr != nil {
		return ctx.inCSR(v)
	}
	if ctx.lender != nil {
		run := ctx.lender.InRun(v)
		ctx.edges += uint64(len(run))
		return run
	}
	ctx.buf = ctx.g.InNeigh(v, ctx.buf[:0])
	ctx.edges += uint64(len(ctx.buf))
	return ctx.buf
}

// outRun is inRun for the out direction.
func (ctx *recomputeCtx) outRun(v graph.NodeID) []graph.Neighbor {
	if ctx.csr != nil {
		return ctx.outCSR(v)
	}
	if ctx.lender != nil {
		run := ctx.lender.OutRun(v)
		ctx.edges += uint64(len(run))
		return run
	}
	ctx.buf = ctx.g.OutNeigh(v, ctx.buf[:0])
	ctx.edges += uint64(len(ctx.buf))
	return ctx.buf
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

// inCSR is inRun's flat arm, for callers that took the fork on the backing
// already: the view rounds (spec.roundCSR) run only when ctx.csr is set.
// Small enough to inline, which inRun — carrying the interface call — is
// not.
func (ctx *recomputeCtx) inCSR(v graph.NodeID) []graph.Neighbor {
	run := ctx.csr.In(v)
	ctx.edges += uint64(len(run))
	return run
}

// outCSR is inCSR for the out direction.
func (ctx *recomputeCtx) outCSR(v graph.NodeID) []graph.Neighbor {
	run := ctx.csr.Out(v)
	ctx.edges += uint64(len(run))
	return run
}

// outDegree and inDegree are the degree reads of the frontier heuristics
// and the range partitioners.
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
// contribOf(rank[u], outdeg(u)) into contrib[u] for u in [lo,hi) — plain
// stores, see values.put. A per-vertex accessor forking on the backing
// cannot inline (its interface call is over budget), and a call per vertex
// costs the flat path's contribution pass a tenth of the whole FS PageRank
// batch; here the fork is taken once per range.
//
// saga:hotpath
func (ctx *recomputeCtx) fillContrib(contrib, rank values, lo, hi int) {
	if ctx.csr != nil {
		if deg := ctx.csr.OutDeg; deg != nil {
			for u := lo; u < hi; u++ {
				contrib.put(u, contribOf(rank.get(u), int(deg[u])))
			}
			return
		}
		spans := ctx.csr.OutSpans
		for u := lo; u < hi; u++ {
			contrib.put(u, contribOf(rank.get(u), spans[u].Len()))
		}
		return
	}
	for u := lo; u < hi; u++ {
		contrib.put(u, contribOf(rank.get(u), ctx.g.OutDegree(graph.NodeID(u))))
	}
}

// spec describes one algorithm: its Table I vertex function expressed as a
// pull-style recompute, its initialization, and its INC trigger rule.
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
	// recompute evaluates the vertex function for v by pulling from
	// neighbors. It must not write ctx.vals.
	recompute func(ctx *recomputeCtx, v graph.NodeID) float64
	// roundCSR is a round's share on the flat view, under either model:
	// recompute and settle every vertex of list in order, reading spans
	// and runs directly. Same pull body as recompute, which serves the
	// rounds over the structure's interface.
	roundCSR func(r *rounds, wk *worker, list []graph.NodeID)
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
		// Table I: v.depth <- min over inEdges(v) (e.source.depth + 1).
		recompute: func(ctx *recomputeCtx, v graph.NodeID) float64 { return pullBFS(ctx.inRun(v), ctx.vals) },
		roundCSR: func(r *rounds, wk *worker, list []graph.NodeID) {
			for _, v := range list {
				newv := pullBFS(wk.ctx.inCSR(v), r.vals)
				if v == r.opts.Source {
					newv = 0
				}
				r.settle(wk, v, newv)
			}
		},
		epsilon:   exactChange,
		tight:     func(valU, _, valV float64) bool { return valV == valU+1 },
		fsPullsIn: true, // direction-optimized BFS pulls in bottom-up steps
		fsRun:     fsBFS,
	},
	"cc": {
		name:      "cc",
		initValue: func(v graph.NodeID, _ int) float64 { return float64(v) },
		// Table I: v.value <- min(v.value, min over Edges(v) of
		// e.other.value) — connectivity over both directions.
		recompute: func(ctx *recomputeCtx, v graph.NodeID) float64 {
			// The out run must be consumed before inRun refills the
			// shared scratch on the interface path.
			best := pullMin(ctx.outRun(v), ctx.vals, ctx.vals.get(int(v)))
			return pullMin(ctx.inRun(v), ctx.vals, best)
		},
		roundCSR: func(r *rounds, wk *worker, list []graph.NodeID) {
			for _, v := range list {
				best := pullMin(wk.ctx.outCSR(v), r.vals, r.vals.get(int(v)))
				r.settle(wk, v, pullMin(wk.ctx.inCSR(v), r.vals, best))
			}
		},
		pushBoth: true,
		epsilon:  exactChange,
		tight:    func(valU, _, valV float64) bool { return valV == valU },
		fsRun:    fsRelax,
	},
	"mc": {
		name:      "mc",
		initValue: func(v graph.NodeID, _ int) float64 { return float64(v) },
		// Table I: v.value <- max(v.value, max over inEdges(v) of
		// e.source.value).
		recompute: func(ctx *recomputeCtx, v graph.NodeID) float64 {
			return pullMax(ctx.inRun(v), ctx.vals, ctx.vals.get(int(v)))
		},
		roundCSR: func(r *rounds, wk *worker, list []graph.NodeID) {
			for _, v := range list {
				r.settle(wk, v, pullMax(wk.ctx.inCSR(v), r.vals, r.vals.get(int(v))))
			}
		},
		epsilon:   exactChange,
		tight:     func(valU, _, valV float64) bool { return valV == valU },
		fsPullsIn: true, // rounds recompute via the in-run pull
		fsRun:     fsRelax,
	},
	"pr": {
		name:        "pr",
		initValue:   func(_ graph.NodeID, numNodes int) float64 { return 1 / float64(numNodes) },
		uniformInit: true,
		// Table I: v.rank <- 0.15/|V| + 0.85 * sum over inEdges(v) of
		// e.source.rank (normalized by the source's out-degree,
		// Section V-B) — the normalized ranks being ctx.contrib.
		recompute: func(ctx *recomputeCtx, v graph.NodeID) float64 {
			return prPull(ctx.inRun(v), ctx.contrib, prBase/float64(ctx.numNodes))
		},
		roundCSR: func(r *rounds, wk *worker, list []graph.NodeID) {
			contrib, outSpans, base := wk.ctx.contrib, r.csr.OutSpans, prBase/float64(r.n)
			for _, v := range list {
				newv := prPull(wk.ctx.inCSR(v), contrib, base)
				contrib.store(int(v), contribOf(newv, outSpans[v].Len()), r.plain)
				r.settle(wk, v, newv)
			}
		},
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
		// Table I: v.path <- min over inEdges(v) (e.source.path +
		// e.weight).
		recompute: func(ctx *recomputeCtx, v graph.NodeID) float64 { return pullSSSP(ctx.inRun(v), ctx.vals) },
		roundCSR: func(r *rounds, wk *worker, list []graph.NodeID) {
			for _, v := range list {
				newv := pullSSSP(wk.ctx.inCSR(v), r.vals)
				if v == r.opts.Source {
					newv = 0
				}
				r.settle(wk, v, newv)
			}
		},
		epsilon:  exactChange,
		weighted: true,
		tight:    func(valU, w, valV float64) bool { return valV == valU+w },
		fsRun:    fsSSSP,
	},
	"sswp": {
		name:        "sswp",
		hasSource:   true,
		sourceValue: inf,
		initValue:   func(graph.NodeID, int) float64 { return 0 },
		uniformInit: true,
		// Table I: v.path <- max over inEdges(v) of
		// min(e.source.path, e.weight).
		recompute: func(ctx *recomputeCtx, v graph.NodeID) float64 { return pullSSWP(ctx.inRun(v), ctx.vals) },
		roundCSR: func(r *rounds, wk *worker, list []graph.NodeID) {
			for _, v := range list {
				newv := pullSSWP(wk.ctx.inCSR(v), r.vals)
				if v == r.opts.Source {
					newv = inf
				}
				r.settle(wk, v, newv)
			}
		},
		epsilon:  exactChange,
		weighted: true,
		tight:    func(valU, w, valV float64) bool { return valV == math.Min(valU, w) },
		fsRun:    fsSSWP,
	},
}

// The pull bodies of the five monotone vertex functions, over one
// adjacency run — the run accessor (recomputeCtx.inRun on either backing,
// inCSR on the view) is the caller's.

func pullBFS(in []graph.Neighbor, vals values) float64 {
	best := inf
	for _, nb := range in {
		if d := vals.get(int(nb.ID)) + 1; d < best {
			best = d
		}
	}
	return best
}

func pullSSSP(in []graph.Neighbor, vals values) float64 {
	best := inf
	for _, nb := range in {
		if d := vals.get(int(nb.ID)) + float64(nb.Weight); d < best {
			best = d
		}
	}
	return best
}

func pullSSWP(in []graph.Neighbor, vals values) float64 {
	best := 0.0
	for _, nb := range in {
		if w := math.Min(vals.get(int(nb.ID)), float64(nb.Weight)); w > best {
			best = w
		}
	}
	return best
}

// pullMin (CC) and pullMax (MC) fold a run's values into best.
func pullMin(run []graph.Neighbor, vals values, best float64) float64 {
	for _, nb := range run {
		if nv := vals.get(int(nb.ID)); nv < best {
			best = nv
		}
	}
	return best
}

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
