package bench

import (
	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
	"sagabench/internal/stats"
)

// Extensions measures the two capabilities this repository adds beyond
// the paper's framework (both named by the paper as future work):
//
//  1. update latency by structure: the degree-adaptive hybrid beside the
//     paper's four on both degree-tail regimes; and
//  2. a sliding-window mixed stream (inserts plus expiring edges) over
//     the deletion-capable structures.
func (h *Harness) Extensions() error {
	h.printf("\n== Extensions: update latency by structure and sliding-window deletion ==\n")

	// (a) P3 update latency, every registered structure, both tails.
	h.printf("(a) P3 update latency by structure (incremental CC)\n")
	structures := AllDS()
	h.printf("%-10s %12s %12s\n", "structure", "lj", "wiki")
	for _, d := range structures {
		var cells [2]string
		for i, dataset := range []string{"lj", "wiki"} {
			res, err := h.run(dataset, d.Key, "cc", compute.INC)
			if err != nil {
				return err
			}
			sums, err := res.StageSummaries(core.MetricUpdate)
			if err != nil {
				return err
			}
			cells[i] = formatSeconds(sums[2].Mean)
		}
		h.printf("%-10s %12s %12s\n", d.Label, cells[0], cells[1])
	}

	// (b) Sliding window: every batch inserts fresh edges and deletes the
	// batch that fell out of the window; incremental CC keeps running,
	// repairing through KickStarter-style trimming.
	h.printf("(b) sliding-window mixed stream (window=8 batches, trimmed incremental CC)\n")
	h.printf("%-10s %14s %14s\n", "structure", "mean update", "mean compute")
	spec, err := gen.Dataset("lj", h.opts.Profile)
	if err != nil {
		return err
	}
	for _, d := range structures {
		upd, cmp, err := h.slidingWindow(d.Key, spec)
		if err != nil {
			return err
		}
		h.printf("%-10s %14s %14s\n", d.Label, formatSeconds(upd), formatSeconds(cmp))
	}
	return nil
}

// slidingWindow streams spec's edges with an 8-batch expiry window and
// returns mean update (ingest+delete) and compute latencies.
func (h *Harness) slidingWindow(dsName string, spec gen.Spec) (upd, cmp float64, err error) {
	const window = 8
	p, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: dsName,
		Algorithm:     "cc",
		Model:         compute.INC,
		Directed:      spec.Directed,
		Threads:       h.opts.Threads,
		MaxNodesHint:  spec.NumNodes,
	})
	if err != nil {
		return 0, 0, err
	}
	edges := spec.Generate(h.opts.Seed)
	batches := graph.Batches(edges, spec.BatchSize)
	var updSamples, cmpSamples []float64
	for i, b := range batches {
		mb := core.MixedBatch{Adds: b}
		if i >= window {
			mb.Dels = batches[i-window]
		}
		lat, err := p.ProcessMixed(mb)
		if err != nil {
			return 0, 0, err
		}
		updSamples = append(updSamples, lat.Update.Seconds())
		cmpSamples = append(cmpSamples, lat.Compute.Seconds())
	}
	return stats.Summarize(updSamples).Mean, stats.Summarize(cmpSamples).Mean, nil
}
