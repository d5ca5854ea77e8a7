package main

import (
	"fmt"
	"math"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/gen"
)

// workload is one configuration of the assembled pipeline plus the stream
// that drives it. Edge counts are the full-scale figures; scale.edges
// shrinks them for the smoke tests.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	ds    string
	alg   string
	model compute.Model
	view  bool // ComputeView
	serve bool // ServeQueries
	spec  func(nodes, edges int) gen.Spec

	preload      int // edges ingested during set-up
	preloadBatch int // edges per set-up batch
	batch        int // fresh adds per timed batch
	window       int // > 0: each batch also deletes the batch added `window` batches earlier

	// perSecond fixes the number of timed batches as ceil(perSecond ×
	// -seconds), the same on every commit: these streams grow the graph, so
	// a commit that ran more batches in the same time would be timed on a
	// larger graph. Closed-loop values were calibrated so that the timed
	// section takes about -seconds on the 2-core reference box at the seed
	// commit; for the open loop it is the offered rate, the round number
	// nearest half the closed-loop capacity.
	perSecond float64

	reader bool // a benchmark goroutine runs read sessions against pinned epochs

	// durable selects the operator's configuration: core.Supervisor, WAL
	// with fsync=always, periodic checkpoints, telemetry recorder, open
	// loop at perSecond, and a recovery probe at the end.
	durable  bool
	shed     bool // supervisor sheds instead of blocking (tests only)
	maxQueue int
	// tamper, when set (tests only), may damage batch i or the supervisor
	// before the batch is offered.
	tamper func(i int, mb *core.MixedBatch, sup *core.Supervisor)
}

// threads is the pipeline's worker count on every workload: the reference
// box is two cores of a shared host, and two workers that meet at a barrier
// every round wait for whichever lost its core to a neighbour (run-to-run
// spreads of 33-66 % at 2, 4-8 % at 1; README, "One busy thread").
const threads = 1

// checkpointEvery is the durable workload's checkpoint period in batches;
// restBatches is how far past the last checkpoint the stream stops, so
// that the recovery probe always replays the same WAL tail.
const (
	checkpointEvery = 64
	restBatches     = 48
)

// rmat is the paper's synthetic dataset shape: (a,b,c) = (.55,.15,.15);
// gen assigns the remainder to the fourth quadrant.
func rmat(nodes, edges int) gen.Spec {
	return gen.Spec{Kind: gen.KindRMAT, Directed: true, NumNodes: nodes, NumEdges: edges, A: .55, B: .15, C: .15, D: .15}
}

// hubHeavy is the `wiki` dataset shape: one hub receives 45 % of all
// destination endpoints.
func hubHeavy(nodes, edges int) gen.Spec {
	return gen.Spec{Kind: gen.KindPowerLaw, Directed: true, NumNodes: nodes, NumEdges: edges,
		HubCount: 1, HubInShare: .45, HubOutShare: .002, Skew: .4}
}

var workloads = []*workload{
	{
		name: "update-churn",
		why:  "sliding window of inserts beside deletes, no view/epoch/WAL: ds insert and delete do most of the work",
		ds:   "hybrid", alg: "bfs", model: compute.FS, spec: rmat,
		preload: 2_000_000, preloadBatch: 100_000, batch: 100_000, window: 20, perSecond: 8.5,
	},
	{
		name: "recompute-view",
		why:  "paper baseline: insert-only, from-scratch PageRank on the flat view of a graph past cache size: compute kernels dominate",
		ds:   "adjshared", alg: "pr", model: compute.FS, view: true, spec: rmat,
		preload: 1_000_000, preloadBatch: 100_000, batch: 20_000, perSecond: 3,
	},
	{
		name: "serve-reads",
		why:  "hub-heavy inserts with one writer thread beside one reader pinning epochs: writer and reader share view buffers",
		ds:   "hybrid", alg: "pr", model: compute.INC, view: true, serve: true, spec: hubHeavy,
		preload: 1_000_000, preloadBatch: 100_000, batch: 10_000, perSecond: 18, reader: true,
	},
	{
		name: "small-durable",
		why:  "supervised, WAL fsync=always, checkpoints, 1000-edge batches offered at a fixed rate: fixed per-batch costs dominate",
		ds:   "hybrid", alg: "cc", model: compute.INC, view: true, serve: true, spec: rmat,
		preload: 1_000_000, preloadBatch: 50_000, batch: 1_000, perSecond: 20, durable: true, maxQueue: 64,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scale sizes a run: the benchmark proper is "full"; "tiny" is the smoke
// test's 2^12-vertex version of the same four workloads.
type scale struct {
	nodes int
	div   int // edge counts are divided by this
}

var scales = map[string]scale{
	"full": {1 << 18, 1},
	"tiny": {1 << 12, 64},
}

func (sc scale) edges(n int) int { return (n + sc.div - 1) / sc.div }

func (w *workload) preloadBatches() int { return (w.preload + w.preloadBatch - 1) / w.preloadBatch }

// timedBatches is the fixed batch count for a run of the given length. The
// durable workload rounds it up so that the stream ends restBatches past a
// checkpoint.
func (w *workload) timedBatches(seconds int) int {
	n := int(math.Ceil(w.perSecond * float64(seconds)))
	if w.durable {
		for (w.preloadBatches()+n)%checkpointEvery != restBatches {
			n++
		}
	}
	return n
}

func (w *workload) pipelineConfig(sc scale) core.PipelineConfig {
	return core.PipelineConfig{
		DataStructure: w.ds, Algorithm: w.alg, Model: w.model, Directed: true,
		Threads: threads, MaxNodesHint: sc.nodes, ComputeView: w.view, ServeQueries: w.serve,
	}
}
