// Package compute implements the SAGA-Bench compute phase: six
// vertex-centric algorithms (BFS, CC, MC, PR, SSSP, SSWP — Table I) in two
// compute models (paper Section III-B):
//
//   - FS: recomputation from scratch — every batch resets the vertex
//     properties and reruns a conventional static-graph algorithm
//     (GAP-style) on the freshly updated topology.
//   - INC: incremental computation — processing amortization (start from
//     the previous batch's values) plus selective triggering (recompute
//     only vertices affected directly or transitively by the batch),
//     implementing the paper's Algorithm 1.
//
// Vertex property values are held in a separate float64 array (paper
// footnote 4), one slot per vertex, uniform across algorithms.
//
// saga:paniccapture — worker goroutines must capture panics.
// saga:deterministic — results feed the differential fuzzer and replay.
// (Both enforced by sagavet; see internal/analysis.)
package compute

import (
	"fmt"
	"sort"
	"time"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// Model selects a compute model.
type Model string

// The two compute models of the paper.
const (
	FS  Model = "fs"
	INC Model = "inc"
)

// Options tunes an engine; zero values select the paper's defaults.
type Options struct {
	// Source is the root vertex for BFS/SSSP/SSWP.
	Source graph.NodeID
	// Threads is the compute-phase worker count; 0 means 1.
	Threads int
	// PRTolerance stops FS PageRank power iteration (default 1e-4, as
	// in GAP).
	PRTolerance float64
	// PRMaxIters bounds FS PageRank iterations (default 20, as in GAP).
	PRMaxIters int
	// Delta is the SSSP delta-stepping bucket width (default 8).
	Delta float64
	// Epsilon overrides the INC triggering threshold (default 1e-7 for
	// PR, exact change for the monotone algorithms).
	Epsilon float64
	// WorkerTiming enables the range records of Stats.Ranges, and with
	// them Stats.WorkerBusyNS and StragglerRatio. It costs two monotonic
	// clock reads and one record per worker range per round — measurable
	// on small INC rounds — so core.NewPipeline switches it on only when
	// a telemetry recorder or tracer is attached; with it off the kernels
	// run exactly the uninstrumented code path.
	WorkerTiming bool
}

func (o Options) threads() int {
	if o.Threads <= 0 {
		return 1
	}
	return o.Threads
}

func (o Options) prTolerance() float64 {
	if o.PRTolerance <= 0 {
		return 1e-4
	}
	return o.PRTolerance
}

func (o Options) prMaxIters() int {
	if o.PRMaxIters <= 0 {
		return 20
	}
	return o.PRMaxIters
}

func (o Options) delta() float64 {
	if o.Delta <= 0 {
		return 8
	}
	return o.Delta
}

// Engine runs one algorithm under one compute model across successive
// batches. PerformAlg is the performAlg() entry point of the paper's API:
// it is invoked once per batch, after the update phase, with the vertices
// the batch touched.
type Engine interface {
	// Name reports the algorithm name ("bfs", "cc", ...).
	Name() string
	// Model reports the compute model.
	Model() Model
	// PerformAlg runs the compute phase. affected lists the batch's
	// endpoint vertices (deduplicated); FS engines ignore it.
	PerformAlg(g ds.Graph, affected []graph.NodeID)
	// Values exposes the vertex property array (length = NumNodes of
	// the last PerformAlg call). The slice is the engine's, valid until
	// the next Values call.
	Values() []float64
	// ValuesSince is Values written into dst's storage (grown as needed)
	// and owned by the caller: one copy where retaining Values costs two,
	// and the engine keeps no copy of its own. of is the phase whose
	// values dst already holds — a number an earlier call returned, 0 for
	// none. An INC engine records the vertices each phase changed, and
	// writes only those of the last two phases into a dst that is at most
	// two phases behind; any other dst gets every value. It returns dst,
	// the number of the phase it now holds, and how many slots it wrote.
	ValuesSince(dst []float64, of uint64) ([]float64, uint64, int)
	// Stats reports counters from the most recent PerformAlg call.
	Stats() Stats
	// HandlesDeletions reports whether the engine stays correct when
	// the update phase removes edges. Every FS engine does (it recomputes
	// from scratch). INC engines do too: PageRank's damped recompute is a
	// contraction that re-converges after any topology change, and the
	// monotone algorithms repair through KickStarter-style trimming (see
	// trim.go) when the pipeline notifies them of deletions.
	HandlesDeletions() bool
}

// Stats describes one compute phase's work.
type Stats struct {
	// Iterations counts frontier rounds (INC) or algorithm iterations
	// (FS).
	Iterations int
	// Processed counts vertex recomputations.
	Processed uint64
	// EdgesTraversed counts neighbor records read.
	EdgesTraversed uint64
	// Triggered counts INC recomputations whose value change exceeded the
	// triggering threshold and propagated to neighbors; Skipped counts
	// recomputations the threshold absorbed. Both are zero for FS engines
	// (recomputation from scratch has no triggering).
	Triggered uint64
	Skipped   uint64
	// Ranges records every worker range of the phase's passes, in pass
	// order (Options.WorkerTiming; nil with it off). WorkerBusyNS is their
	// per-worker busy time (nanoseconds, indexed by worker slot) — the raw
	// material of the straggler ratio; all zero for the sequential
	// kernels (FS SSSP/SSWP). Both alias engine scratch and are valid
	// until the next PerformAlg; callers that retain them must copy.
	Ranges       []Range
	WorkerBusyNS []int64
}

// Range is one worker's share of one pass: the pass (Pass names it, and
// StepKey/Step number it within the phase: its 1-based round, level or
// iteration), the worker slot and the vertices it covered, what it did
// (CountKey is "triggered" for a triggering pass, else "edges" read), and
// when it ran.
type Range struct {
	Pass, StepKey, CountKey string
	Step, Worker, Vertices  int
	Count                   uint64
	Start                   time.Time
	Dur                     time.Duration
}

// WorkersUsed counts the worker slots that did any work in the phase.
func (s Stats) WorkersUsed() int {
	used := 0
	for _, ns := range s.WorkerBusyNS {
		if ns > 0 {
			used++
		}
	}
	return used
}

// StragglerRatio is max/mean busy time over the worker slots that did any
// work: 1.0 is a perfectly balanced phase, larger values mean one
// worker's range dominated its rounds even under the edge-balanced cuts
// (a skew the degree prefix sum cannot see, e.g. weight-dependent
// convergence). 0 when no parallel round ran.
func (s Stats) StragglerRatio() float64 {
	var max, sum int64
	used := 0
	for _, ns := range s.WorkerBusyNS {
		if ns <= 0 {
			continue
		}
		used++
		sum += ns
		if ns > max {
			max = ns
		}
	}
	if used == 0 || sum == 0 {
		return 0
	}
	return float64(max) * float64(used) / float64(sum)
}

// TriggerFraction reports Triggered / (Triggered + Skipped) — the paper's
// selective-triggering effectiveness — or 0 when the model does not
// trigger (FS) or no vertex was processed.
func (s Stats) TriggerFraction() float64 {
	n := s.Triggered + s.Skipped
	if n == 0 {
		return 0
	}
	return float64(s.Triggered) / float64(n)
}

// AlgNames lists the six algorithms in the paper's order.
func AlgNames() []string { return []string{"bfs", "cc", "mc", "pr", "sssp", "sswp"} }

// NeedsInAdjacency reports whether running alg under model ever reads
// in-adjacency. Every INC recompute pulls a vertex's value from its
// in-neighbors (Table I), but the delta-stepping FS kernels (SSSP, SSWP)
// relax exclusively along out-edges, so a compute view serving only them
// can skip mirroring the in direction entirely
// (ds.ComputeView.MirrorOutOnly). Unknown algorithms report true: the
// conservative answer costs refresh time, never correctness.
func NeedsInAdjacency(alg string, model Model) bool {
	s, ok := specs[alg]
	if !ok || model != FS {
		return true
	}
	return s.pushBoth || s.fsPullsIn
}

// NeedsOutAdjacency reports whether running alg under model ever reads
// out-runs. Every INC round pushes a triggered vertex's change along its
// out-edges, and every FS kernel but PageRank walks out-edges too; FS
// PageRank pulls over in-runs and reads only each source's out-degree, so
// a compute view serving it can keep one degree per vertex in place of the
// out mirror (ds.ComputeView.MirrorInOnly). Unknown algorithms report true.
func NeedsOutAdjacency(alg string, model Model) bool {
	s, ok := specs[alg]
	return !ok || model != FS || !s.fsOutDegreesOnly
}

// NewEngine constructs an engine for the named algorithm and model.
func NewEngine(alg string, model Model, opts Options) (Engine, error) {
	spec, ok := specs[alg]
	if !ok {
		known := make([]string, 0, len(specs))
		// saga:allow determinism -- order is re-established by the sort below.
		for k := range specs {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("compute: unknown algorithm %q (have %v)", alg, known)
	}
	switch model {
	case FS:
		return newFSEngine(spec, opts), nil
	case INC:
		return newIncEngine(spec, opts), nil
	default:
		return nil, fmt.Errorf("compute: unknown model %q (have %q, %q)", model, FS, INC)
	}
}

// MustNewEngine is NewEngine that panics on error.
func MustNewEngine(alg string, model Model, opts Options) Engine {
	e, err := NewEngine(alg, model, opts)
	if err != nil {
		panic(err)
	}
	return e
}
