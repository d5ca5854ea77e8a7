package compute

import (
	"sagabench/internal/ds"
	"sagabench/internal/graph"
	"sagabench/internal/trace"
)

// fsEngine implements the recomputation-from-scratch model: every batch it
// resets the vertex properties to their initial values and reruns a
// conventional static-graph algorithm on the freshly updated topology,
// oblivious to the previous batch's results (paper Section III-B).
type fsEngine struct {
	spec spec
	opts Options

	vals     values
	stats    Stats
	valsCopy []float64

	// scratch reused across batches by the per-algorithm runners.
	// saga:allow atomicmix -- phase-separated: parallel rounds CAS/Load visited, plain access only in the sequential reset/seed phases between rounds.
	visited  []uint32
	frontier []graph.NodeID
	next     []graph.NodeID
	pr       prSweep

	// Round scratch shared by the frontier kernels: per-worker push
	// buffers and the edge-balanced range cuts.
	push pushBufs
	cuts []int

	// clock accumulates per-worker busy time across the phase's rounds;
	// tr scopes this phase's worker spans to the current batch trace (zero
	// value = tracing off).
	clock workerClock
	tr    trace.Ctx
}

func newFSEngine(s spec, opts Options) *fsEngine {
	return &fsEngine{spec: s, opts: opts}
}

func (e *fsEngine) Name() string { return e.spec.name }
func (e *fsEngine) Model() Model { return FS }

// Values materializes the property array.
func (e *fsEngine) Values() []float64 {
	e.valsCopy = e.vals.materialize(e.valsCopy)
	return e.valsCopy
}

func (e *fsEngine) Stats() Stats { return e.stats }

// SetTrace implements Traceable: worker spans of the next PerformAlg are
// recorded under ctx. The pipeline re-arms it every batch; the zero Ctx
// disables recording.
func (e *fsEngine) SetTrace(ctx trace.Ctx) { e.tr = ctx }

// HandlesDeletions implements Engine: recomputation from scratch is
// correct under any topology change.
func (e *fsEngine) HandlesDeletions() bool { return true }

// PerformAlg implements Engine.
func (e *fsEngine) PerformAlg(g ds.Graph, _ []graph.NodeID) {
	n := g.NumNodes()
	if e.opts.WorkerTiming {
		e.clock.reset(e.opts.threads())
	}
	e.stats = Stats{}
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
	if n == 0 {
		if e.opts.WorkerTiming {
			e.stats.WorkerBusyNS = e.clock.busy
		}
		return
	}
	e.spec.fsRun(e, g)
	if e.opts.WorkerTiming {
		e.stats.WorkerBusyNS = e.clock.busy
	}
}

// resetVisited clears and sizes the visited scratch.
func (e *fsEngine) resetVisited(n int) {
	if cap(e.visited) < n {
		e.visited = make([]uint32, n)
		return
	}
	e.visited = e.visited[:n]
	for i := range e.visited {
		e.visited[i] = 0
	}
}
