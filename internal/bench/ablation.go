package bench

import (
	"context"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/ds"
	"sagabench/internal/gen"
)

// Ablation sweeps the design parameters the paper fixes by fiat, isolating
// each data structure's tuning sensitivity:
//
//   - Stinger's edge-block capacity (the paper uses 16): small blocks mean
//     more pointer chasing, large blocks waste scan work;
//   - DAH's low→high flush threshold (the paper uses a fixed degree
//     boundary): low thresholds push everything through the flush
//     meta-operation, high thresholds keep hubs in the Robin Hood table;
//   - the chunk count of the chunked-multithreading structures.
//
// Each sweep reports P3 update latency on one short-tailed and one
// heavy-tailed dataset under incremental CC.
func (h *Harness) Ablation() error {
	h.printf("\n== Ablation: data-structure tuning sweeps (P3 update latency) ==\n")

	type variant struct {
		label string
		cfg   ds.Config
	}
	sweep := func(title, dsName string, vs []variant) error {
		h.printf("%s\n", title)
		h.printf("%-10s %12s %12s\n", "value", "lj", "wiki")
		for _, v := range vs {
			var cells [2]string
			for i, dataset := range []string{"lj", "wiki"} {
				spec, err := gen.Dataset(dataset, h.opts.Profile)
				if err != nil {
					return err
				}
				res, err := core.Run(context.Background(), core.RunConfig{
					PipelineConfig: core.PipelineConfig{
						DataStructure: dsName,
						Algorithm:     "cc",
						Model:         compute.INC,
						Threads:       h.opts.Threads,
						DS:            v.cfg,
					},
					Dataset: spec,
					Seed:    h.opts.Seed,
					Repeats: h.opts.Repeats,
				})
				if err != nil {
					return err
				}
				sums, err := res.StageSummaries(core.MetricUpdate)
				if err != nil {
					return err
				}
				cells[i] = formatSeconds(sums[2].Mean)
			}
			h.printf("%-10s %12s %12s\n", v.label, cells[0], cells[1])
		}
		return nil
	}

	if err := sweep("(a) Stinger block size", "stinger", []variant{
		{"4", ds.Config{BlockSize: 4}},
		{"16", ds.Config{BlockSize: 16}},
		{"64", ds.Config{BlockSize: 64}},
		{"256", ds.Config{BlockSize: 256}},
	}); err != nil {
		return err
	}
	if err := sweep("(b) DAH flush threshold", "dah", []variant{
		{"4", ds.Config{FlushThreshold: 4}},
		{"16", ds.Config{FlushThreshold: 16}},
		{"64", ds.Config{FlushThreshold: 64}},
		{"1024", ds.Config{FlushThreshold: 1024}},
	}); err != nil {
		return err
	}
	return sweep("(c) AC chunk count", "adjchunked", []variant{
		{"1", ds.Config{Chunks: 1}},
		{"4", ds.Config{Chunks: 4}},
		{"16", ds.Config{Chunks: 16}},
		{"64", ds.Config{Chunks: 64}},
	})
}
