// Package bench regenerates every table and figure of the paper's
// evaluation (Tables II–IV, Figures 6–10). Each experiment prints rows
// shaped like the paper's so the measured trends can be compared directly;
// EXPERIMENTS.md records a paper-vs-measured comparison produced from this
// package's output.
//
// Experiments share a lazily memoized run matrix (a full characterization
// sweeps 5 datasets × 4 data structures × 6 algorithms × 2 compute models)
// and a memoized architecture-profile matrix for the Section VI figures.
package bench

import (
	"fmt"
	"io"
	"os"

	"sagabench/internal/archsim"
	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/ds"
	"sagabench/internal/gen"
	"sagabench/internal/perfmon"
	"sagabench/internal/stats"
	"sagabench/internal/telemetry"
	"sagabench/internal/trace"
)

// Options configures a harness invocation.
type Options struct {
	// Profile scales the datasets (default gen.ProfileDefault).
	Profile gen.Profile
	// Threads is the worker count for update and compute (default 4).
	Threads int
	// Repeats re-runs each stream (default 1; paper uses 3).
	Repeats int
	// Seed drives dataset generation.
	Seed int64
	// MachineDiv scales the simulated machine for the architecture
	// experiments (default 128; see archsim.ScaledMachine).
	MachineDiv int
	// Out receives the rendered rows (default os.Stdout).
	Out io.Writer
	// CSVDir, when set, additionally writes each experiment's data
	// series as CSV files into this directory.
	CSVDir string
	// Telemetry, when non-nil, receives one event per batch of every
	// measured run (live metrics + JSONL event log; see cmd/sagabench
	// -listen/-events).
	Telemetry *telemetry.Recorder
	// Tracer, when non-nil, records a span tree per batch of every run in
	// the shared run matrix (see core.PipelineConfig.Tracer and
	// cmd/sagabench -trace-out).
	Tracer *trace.Tracer
	// ComputeView runs every measured pipeline's compute phase on the
	// incrementally rebuilt flat CSR mirror (core.PipelineConfig.ComputeView).
	ComputeView bool
	// QueryReaders, when positive, serves non-blocking queries during
	// every measured run: each pipeline publishes an epoch snapshot per
	// batch and this many concurrent readers query the snapshots while
	// the stream applies (core.StartQueryLoad). Serving implies
	// ComputeView. Aggregate query stats print after the experiments
	// finish.
	QueryReaders int
	// FaultSchedule overrides the faults experiment's built-in fault
	// schedule (fault.ParseSchedule syntax, seeded by Seed).
	FaultSchedule string
	// MaxQueue bounds the supervised ingest queue of the faults
	// experiment (default 8).
	MaxQueue int
	// DegradePolicy, when set, restricts the faults experiment to the
	// baseline plus this one policy instead of sweeping all three.
	DegradePolicy string
	// HealthDir, when set, writes one JSON health report per faults-
	// experiment run into this directory (faults-<policy>.json) — the CI
	// chaos job uploads them as artifacts.
	HealthDir string
}

func (o Options) withDefaults() Options {
	if o.Profile == "" {
		o.Profile = gen.ProfileDefault
	}
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.MachineDiv <= 0 {
		o.MachineDiv = 128
	}
	if o.Out == nil {
		o.Out = os.Stdout
	}
	return o
}

// DSNames lists the four data structures in the paper's order with their
// paper labels.
var DSNames = []struct{ Key, Label string }{
	{"adjshared", "AS"},
	{"adjchunked", "AC"},
	{"stinger", "Stinger"},
	{"dah", "DAH"},
}

// dsExtraLabels labels registered structures beyond the paper's four.
var dsExtraLabels = map[string]string{
	"hybrid": "Hybrid",
}

// DSLabel maps a registry key to its paper label.
func DSLabel(key string) string {
	for _, d := range DSNames {
		if d.Key == key {
			return d.Label
		}
	}
	if l, ok := dsExtraLabels[key]; ok {
		return l
	}
	return key
}

// AllDS lists every registered data structure (paper four plus the
// beyond-the-paper ones) with labels, derived from the ds registry so a
// new registration shows up here without a hand-edit. Paper structures
// keep DSNames order and come first; extras follow in registry order.
func AllDS() []struct{ Key, Label string } {
	out := append([]struct{ Key, Label string }{}, DSNames...)
	for _, key := range ds.Names() {
		known := false
		for _, d := range DSNames {
			if d.Key == key {
				known = true
				break
			}
		}
		if !known {
			out = append(out, struct{ Key, Label string }{key, DSLabel(key)})
		}
	}
	return out
}

// Models lists the two compute models with paper labels.
var Models = []struct {
	Key   compute.Model
	Label string
}{
	{compute.INC, "INC"},
	{compute.FS, "FS"},
}

// Harness memoizes runs across experiments.
type Harness struct {
	opts Options

	runs     map[runKey]*core.RunResult
	profiles map[profKey]*perfmon.Report

	qstats []core.QueryLoadStats

	csvData    map[string][][]string
	csvHeaders map[string][]string
}

type runKey struct {
	dataset string
	ds      string
	alg     string
	model   compute.Model
}

type profKey struct {
	dataset string
	ds      string
	alg     string
}

// New builds a harness.
func New(opts Options) *Harness {
	return &Harness{
		opts:     opts.withDefaults(),
		runs:     make(map[runKey]*core.RunResult),
		profiles: make(map[profKey]*perfmon.Report),
	}
}

// Options reports the effective options.
func (h *Harness) Options() Options { return h.opts }

func (h *Harness) printf(format string, args ...any) {
	fmt.Fprintf(h.opts.Out, format, args...)
}

// run returns the memoized latency measurement of one configuration.
func (h *Harness) run(dataset, dsName, alg string, model compute.Model) (*core.RunResult, error) {
	k := runKey{dataset, dsName, alg, model}
	if r, ok := h.runs[k]; ok {
		return r, nil
	}
	spec, err := gen.Dataset(dataset, h.opts.Profile)
	if err != nil {
		return nil, err
	}
	cfg := core.RunConfig{
		PipelineConfig: core.PipelineConfig{
			DataStructure: dsName,
			Algorithm:     alg,
			Model:         model,
			Threads:       h.opts.Threads,
			ComputeView:   h.opts.ComputeView,
			Telemetry:     h.opts.Telemetry,
			Tracer:        h.opts.Tracer,
		},
		Dataset: spec,
		Seed:    h.opts.Seed,
		Repeats: h.opts.Repeats,
	}
	if h.opts.QueryReaders > 0 {
		cfg.ServeQueries = true
		cfg.OnPipeline = h.attachQueryLoad
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	h.runs[k] = res
	return res, nil
}

// profile returns the memoized architecture report of one configuration
// (always the INC model, per Section VI's methodology).
func (h *Harness) profile(dataset, dsName, alg string) (*perfmon.Report, error) {
	k := profKey{dataset, dsName, alg}
	if r, ok := h.profiles[k]; ok {
		return r, nil
	}
	spec, err := gen.Dataset(dataset, h.opts.Profile)
	if err != nil {
		return nil, err
	}
	mc := archsim.ScaledMachine(h.opts.MachineDiv)
	rep, err := perfmon.Profile(perfmon.Config{
		Run: core.RunConfig{
			PipelineConfig: core.PipelineConfig{
				DataStructure: dsName,
				Algorithm:     alg,
				Model:         compute.INC,
				Threads:       h.opts.Threads,
			},
			Dataset: spec,
			Seed:    h.opts.Seed,
		},
		Threads: 64,
		Machine: &mc,
	})
	if err != nil {
		return nil, err
	}
	h.profiles[k] = rep
	return rep, nil
}

// combo is one (data structure, model) pair with its per-stage totals.
type combo struct {
	ds     string
	model  compute.Model
	stages [3]stats.Summary // MetricTotal
	res    *core.RunResult
}

// combos measures all 8 data-structure × model pairs for one algorithm and
// dataset.
func (h *Harness) combos(dataset, alg string) ([]combo, error) {
	var out []combo
	for _, d := range DSNames {
		for _, m := range Models {
			res, err := h.run(dataset, d.Key, alg, m.Key)
			if err != nil {
				return nil, err
			}
			stages, err := res.StageSummaries(core.MetricTotal)
			if err != nil {
				return nil, err
			}
			out = append(out, combo{
				ds:     d.Key,
				model:  m.Key,
				stages: stages,
				res:    res,
			})
		}
	}
	return out, nil
}

// bestAt returns the winning combo at a stage plus the competitive set
// (combos whose 95% CI overlaps the winner's — the paper's x/y notation).
func bestAt(cs []combo, stage int) (best combo, competitive []combo) {
	best = cs[0]
	for _, c := range cs[1:] {
		if c.stages[stage].Mean < best.stages[stage].Mean {
			best = c
		}
	}
	for _, c := range cs {
		if c.ds == best.ds && c.model == best.model {
			continue
		}
		if c.stages[stage].Overlaps(best.stages[stage]) {
			competitive = append(competitive, c)
		}
	}
	return best, competitive
}

func comboLabel(c combo) string {
	model := "FS"
	if c.model == compute.INC {
		model = "INC"
	}
	return model + "+" + DSLabel(c.ds)
}

// Experiments maps experiment IDs to runners, in paper order.
var Experiments = []struct {
	ID   string
	Desc string
	Run  func(*Harness) error
}{
	{"table2", "Evaluated datasets (sizes, batch counts)", (*Harness).Table2},
	{"table3", "Best data structure + compute model per algorithm/dataset/stage", (*Harness).Table3},
	{"table4", "Max in/out degree, entire dataset vs one batch", (*Harness).Table4},
	{"fig6", "Latency of AC/DAH/Stinger normalized to AS at P3", (*Harness).Fig6},
	{"fig7", "FS/INC compute-latency ratio across stages", (*Harness).Fig7},
	{"fig8", "Update phase share of batch processing latency", (*Harness).Fig8},
	{"fig9", "Core scaling, memory bandwidth, QPI utilization", (*Harness).Fig9},
	{"fig10", "L2/LLC hit ratios and MPKI, update vs compute", (*Harness).Fig10},
	{"ablation", "Design-parameter sweeps (block size, flush threshold, chunks)", (*Harness).Ablation},
	{"extensions", "Log-structured ingest + sliding-window deletion (beyond the paper)", (*Harness).Extensions},
	{"sensitivity", "Fig 9/10 conclusions vs simulated-machine scale (robustness check)", (*Harness).Sensitivity},
	{"interference", "Non-blocking query readers vs update throughput (beyond the paper)", (*Harness).Interference},
	{"faults", "Ingest throughput and query availability per degrade policy under injected faults (beyond the paper)", (*Harness).Faults},
}

// RunExperiment dispatches by ID ("all" runs everything in order) and
// flushes collected CSV series afterwards.
func (h *Harness) RunExperiment(id string) error {
	if id == "all" {
		for _, e := range Experiments {
			if err := e.Run(h); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return h.finish()
	}
	for _, e := range Experiments {
		if e.ID == id {
			if err := e.Run(h); err != nil {
				return err
			}
			return h.finish()
		}
	}
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return fmt.Errorf("bench: unknown experiment %q (have %v and \"all\")", id, ids)
}

// finish flushes CSVs and, when query loads ran alongside the measured
// runs (Options.QueryReaders), reports their aggregate and fails on any
// consistency violation so CI catches torn epochs in ordinary sweeps.
func (h *Harness) finish() error {
	if err := h.FlushCSV(); err != nil {
		return err
	}
	if h.opts.QueryReaders > 0 {
		agg := h.QueryStats()
		h.printf("\nqueries: readers=%d served=%d (%.0f/s) sessions=%d misses=%d max-staleness=%d batches\n",
			h.opts.QueryReaders, agg.Queries, agg.QPS(), agg.Sessions, agg.Misses, agg.MaxStaleness)
		if agg.Violations > 0 {
			return fmt.Errorf("bench: %d query consistency violations, first: %s", agg.Violations, agg.FirstViolation)
		}
	}
	return nil
}
