package compute

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// fsEngine implements the recomputation-from-scratch model: every batch it
// resets the vertex properties to their initial values and reruns a
// conventional static-graph algorithm on the freshly updated topology,
// oblivious to the previous batch's results (paper Section III-B).
type fsEngine struct {
	rounds

	// Kernel state kept for its storage: the PageRank sweep, BFS's two
	// level passes and the bitmap of the level a bottom-up pass pulls
	// toward (all zero between passes), and delta-stepping's distance bins
	// (empty between batches).
	pr                prSweep
	topDown, bottomUp pass
	parents           frontier
	buckets           [][]graph.NodeID
}

func newFSEngine(s spec, opts Options) *fsEngine {
	e := &fsEngine{}
	e.init(s, opts, FS)
	e.topDown = pass{span: "fs.bfs.topdown", step: "depth", run: e.bfsTopDown}
	e.bottomUp = pass{span: "fs.bfs.bottomup", step: "depth", run: e.bfsBottomUp}
	e.pr.contribPass = pass{span: "fs.pr.contrib", step: "iter", run: e.prContribRange}
	e.pr.pullPass = pass{span: "fs.pr.iter", step: "iter", run: e.prPullRange}
	return e
}

func (e *fsEngine) Model() Model { return FS }

// HandlesDeletions implements Engine: recomputation from scratch is
// correct under any topology change.
func (e *fsEngine) HandlesDeletions() bool { return true }

// PerformAlg implements Engine.
func (e *fsEngine) PerformAlg(g ds.Graph, _ []graph.NodeID) {
	n := g.NumNodes()
	if cap(e.vals) < n {
		e.vals = make(values, n)
	}
	e.vals = e.vals[:n]
	// The reset runs before any worker starts: plain stores.
	if e.spec.uniformInit {
		e.vals.fill(e.spec.initValue(0, n))
	} else {
		for v := range e.vals {
			e.vals.put(v, e.spec.initValue(graph.NodeID(v), n))
		}
	}
	if e.spec.hasSource && int(e.opts.Source) < n {
		e.vals.put(int(e.opts.Source), e.spec.sourceValue)
	}
	e.begin(g)
	// A source the graph does not have reaches nothing: the reset is the
	// whole answer.
	if n > 0 && (!e.spec.hasSource || int(e.opts.Source) < n) {
		e.spec.fsRun(e)
	}
	e.end()
}

// fsRelax is FS label propagation (CC, MC): after the reset, the round
// runner from the all-vertices list — what an INC phase does when |V|
// moved, at threshold 0.
func fsRelax(e *fsEngine) {
	e.seedAll()
	e.relax()
}
