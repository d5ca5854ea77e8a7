package crashloop

import (
	"fmt"
	"strings"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// The per-step differential sweep: a stream replayed through one
// core.Pipeline per (structure, algorithm, model), whose structure,
// compute mirror and value vector are diffed against the sequential
// oracle and reference after every step.

// SweepConfig selects what a sweep checks. Zero values mean "all": every
// registered data structure, all six algorithms, both models.
type SweepConfig struct {
	// Stream parameterizes generation (Sweep) and declares directedness
	// (Replay reads Stream.Directed even for explicit streams).
	Stream crosscheck.StreamConfig
	// Threads is the worker count for both phases (default 4, so the
	// concurrent ingestion paths actually interleave).
	Threads int
	// Structures restricts the data structures (default ds.Names()).
	Structures []string
	// Algorithms restricts the algorithms (default compute.AlgNames()).
	Algorithms []string
	// Models restricts the compute models (default both).
	Models []compute.Model
	// TopologyOnly runs one cc/FS pipeline per structure and checks its
	// adjacency only.
	TopologyOnly bool
	// ComputeView runs every pipeline with its flat CSR mirror and diffs
	// the mirror against the oracle too, in the directions it mirrors
	// (FS SSSP/SSWP mirror the out direction only), so the flat kernels
	// are checked like the interface path.
	ComputeView bool
	// Opts carries algorithm tuning; unset convergence knobs are
	// tightened (see tighten).
	Opts compute.Options
	// Fault, when set, plants the defect in the stream the pipelines
	// ingest while the oracle ingests the original (the sweep's
	// self-test; see crosscheck.FaultSpec).
	Fault *crosscheck.FaultSpec
	// StopAtFirst returns after the first failure instead of completing
	// the sweep (the shrinker's predicate uses this).
	StopAtFirst bool
	// MaxDiffs caps per-failure detail strings (default 4).
	MaxDiffs int
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if len(c.Structures) == 0 {
		c.Structures = ds.Names()
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = compute.AlgNames()
	}
	if len(c.Models) == 0 {
		c.Models = []compute.Model{compute.FS, compute.INC}
	}
	c.Opts = tighten(c.Opts)
	c.Opts.Threads = c.Threads
	if c.MaxDiffs <= 0 {
		c.MaxDiffs = 4
	}
	return c
}

// Failure describes one divergence from the sequential oracle.
type Failure struct {
	// DS is the data structure under test.
	DS string
	// Kind is "topology" (a structure or its mirror diverged from the
	// oracle, or a batch failed) or "values" (a pipeline's property vector
	// diverged from the reference).
	Kind string
	// Alg/Model identify the pipeline for values failures.
	Alg   string
	Model compute.Model
	// Batch is the 0-based step index after which the check failed (-1:
	// the pipeline could not be built).
	Batch int
	// Detail is a human-readable description of the first mismatches.
	Detail string
}

func (f Failure) String() string {
	if f.Kind == "topology" {
		return fmt.Sprintf("%s: batch %d: topology: %s", f.DS, f.Batch, f.Detail)
	}
	return fmt.Sprintf("%s: batch %d: %s/%s: %s", f.DS, f.Batch, f.Alg, f.Model, f.Detail)
}

// SweepReport summarizes one sweep.
type SweepReport struct {
	// Batches is the replayed stream length.
	Batches int
	// Structures lists the structures checked.
	Structures []string
	// TopologyChecks counts oracle diffs of a pipeline's structure or
	// mirror, OutOnlyChecks the mirror diffs among them that covered the
	// out direction only, ValueChecks the value-vector comparisons.
	TopologyChecks int
	OutOnlyChecks  int
	ValueChecks    int
	// Failures lists every divergence found. A topology failure is
	// reported once per structure and retires all of its pipelines; a
	// values failure retires its own pipeline — so one root cause yields
	// one failure, not a cascade.
	Failures []Failure
}

// OK reports whether the sweep found no divergence.
func (r *SweepReport) OK() bool { return len(r.Failures) == 0 }

// Sweep generates the stream for cfg and replays it differentially.
func Sweep(cfg SweepConfig) *SweepReport {
	return Replay(cfg, crosscheck.NewStream(cfg.Stream))
}

// Replay replays an explicit stream differentially: every pipeline
// ingests each step through ProcessMixed, then its structure and mirror
// are compared against the oracle and its values against the sequential
// reference computed on the oracle.
func Replay(cfg SweepConfig, stream crosscheck.Stream) *SweepReport {
	cfg = cfg.withDefaults()
	rep := &SweepReport{Batches: len(stream), Structures: cfg.Structures}
	directed := cfg.Stream.Directed
	ingest := cfg.Fault.Apply(stream, directed)
	type engine struct {
		alg   string
		model compute.Model
	}
	engines := []engine{{"cc", compute.FS}} // topology only: one pipeline per structure
	if !cfg.TopologyOnly {
		engines = nil
		for _, alg := range cfg.Algorithms {
			for _, model := range cfg.Models {
				engines = append(engines, engine{alg, model})
			}
		}
	}
	fail := func(f Failure) (stop bool) {
		rep.Failures = append(rep.Failures, f)
		return cfg.StopAtFirst
	}

	// pipes[s][e] runs engine e on structure s; nil once retired.
	pipes := make([][]*core.Pipeline, len(cfg.Structures))
	for s, name := range cfg.Structures {
		for _, e := range engines {
			p, err := core.NewPipeline(core.PipelineConfig{
				DataStructure: name,
				Algorithm:     e.alg,
				Model:         e.model,
				Directed:      directed,
				Threads:       cfg.Threads,
				Compute:       cfg.Opts,
				ComputeView:   cfg.ComputeView,
			})
			if err != nil {
				pipes[s] = nil
				if fail(Failure{DS: name, Kind: "topology", Batch: -1, Detail: fmt.Sprintf("construction failed: %v", err)}) {
					return rep
				}
				break
			}
			pipes[s] = append(pipes[s], p)
		}
	}

	oracle := graph.NewOracle(directed)
	refs := map[string][]float64{}
	for bi := range stream {
		oracle.Update(stream[bi].Adds)
		oracle.Delete(stream[bi].Dels)
		if !cfg.TopologyOnly {
			for _, alg := range cfg.Algorithms {
				refs[alg] = compute.MustReference(alg, oracle, cfg.Opts)
			}
		}
		mb := core.MixedBatch{Adds: ingest[bi].Adds, Dels: ingest[bi].Dels}
		for s, name := range cfg.Structures {
			if detail := rep.stepTopology(pipes[s], mb, oracle, cfg.MaxDiffs); detail != "" {
				pipes[s] = nil
				if fail(Failure{DS: name, Kind: "topology", Batch: bi, Detail: detail}) {
					return rep
				}
				continue
			}
			if cfg.TopologyOnly {
				continue
			}
			for i, p := range pipes[s] {
				if p == nil {
					continue
				}
				e := engines[i]
				rep.ValueChecks++
				got, want := p.Values(), refs[e.alg]
				if v := compute.DiffValues(got, want, compute.Tolerance(e.alg)); v >= 0 {
					pipes[s][i] = nil
					if fail(Failure{DS: name, Kind: "values", Alg: e.alg, Model: e.model, Batch: bi, Detail: diffDetail(got, want, v)}) {
						return rep
					}
				}
			}
		}
	}
	return rep
}

// stepTopology feeds mb to one structure's live pipelines and diffs each
// one's structure and mirror against the oracle; it returns the first
// divergence ("" when every pipeline agrees).
func (r *SweepReport) stepTopology(pipes []*core.Pipeline, mb core.MixedBatch, oracle *graph.Oracle, maxDiffs int) string {
	for _, p := range pipes {
		if p == nil {
			continue
		}
		if _, err := p.ProcessMixed(mb); err != nil {
			return fmt.Sprintf("batch failed: %v", err)
		}
		r.TopologyChecks++
		if diffs := ds.DiffOracle(p.Graph(), oracle, maxDiffs); len(diffs) != 0 {
			return strings.Join(diffs, "; ")
		}
		// The mirror is diffed independently: an incremental-refresh bug
		// shows up here even if no kernel reads the stale run.
		cg := p.ComputeGraph()
		if cg == p.Graph() {
			continue
		}
		r.TopologyChecks++
		if !cg.(ds.FlatView).FlatCSR().HasIn() {
			r.OutOnlyChecks++
			cg = outOnly{cg, oracle}
		}
		if diffs := ds.DiffOracle(cg, oracle, maxDiffs); len(diffs) != 0 {
			return "compute view: " + strings.Join(diffs, "; ")
		}
	}
	return ""
}

// outOnly presents an out-only mirror (ds.ComputeView.MirrorOutOnly) to
// ds.DiffOracle: its in-adjacency reads are answered by the oracle
// itself, so only the direction the mirror holds is compared.
type outOnly struct {
	ds.Graph
	o *graph.Oracle
}

func (g outOnly) InDegree(v graph.NodeID) int { return g.o.InDegree(v) }

func (g outOnly) InNeigh(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor {
	return append(buf, g.o.In(v)...)
}

func diffDetail(got, want []float64, v int) string {
	g, w := "?", "?"
	if v < len(got) {
		g = fmt.Sprintf("%v", got[v])
	}
	if v < len(want) {
		w = fmt.Sprintf("%v", want[v])
	}
	return fmt.Sprintf("vertex %d: got %s want %s (lens %d/%d)", v, g, w, len(got), len(want))
}

// reproConfig is the focused sweep that replays exactly the failure r
// captures: its one structure, and its one engine or topology only.
func reproConfig(r *crosscheck.Repro) SweepConfig {
	cfg := SweepConfig{
		Stream:      crosscheck.StreamConfig{Directed: r.Directed},
		Threads:     r.Threads,
		Structures:  []string{r.DS},
		StopAtFirst: true,
	}
	if r.Alg == "" {
		cfg.TopologyOnly = true
	} else {
		cfg.Algorithms = []string{r.Alg}
		cfg.Models = []compute.Model{r.Model}
		cfg.Opts.Source = r.Source
	}
	return cfg
}

// ReplayRepro re-runs r, with fault planted when non-nil (a repro stores
// the stream, not the defect); a repro that still reproduces yields a
// non-OK report.
func ReplayRepro(r *crosscheck.Repro, fault *crosscheck.FaultSpec) *SweepReport {
	cfg := reproConfig(r)
	cfg.Fault = fault
	return Replay(cfg, r.Stream)
}

// MinimizeFailure shrinks stream against the specific failure f found
// under cfg and packages the result as a replayable Repro. The predicate
// replays a focused configuration (one structure; one engine, or
// topology-only) so shrinking stays fast.
func MinimizeFailure(cfg SweepConfig, stream crosscheck.Stream, f Failure) *crosscheck.Repro {
	cfg = cfg.withDefaults()
	rep := &crosscheck.Repro{
		Directed: cfg.Stream.Directed,
		Threads:  cfg.Threads,
		DS:       f.DS,
		Alg:      f.Alg,
		Model:    f.Model,
		Source:   cfg.Opts.Source,
		Note:     f.String(),
	}
	focused := reproConfig(rep)
	// Preserve the sweep's tuning so values failures reproduce exactly.
	focused.Opts = cfg.Opts
	focused.Fault = cfg.Fault
	pred := func(s crosscheck.Stream) bool { return !Replay(focused, s).OK() }
	rep.Stream = crosscheck.Minimize(stream, pred)
	return rep
}
