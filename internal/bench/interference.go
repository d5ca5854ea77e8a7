package bench

import (
	"fmt"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/gen"
)

// Reader/writer interference: how much does serving non-blocking queries
// from epoch-published snapshots cost the update path? The experiment
// streams one representative configuration (lj, AS, incremental CC — the
// paper's most update-bound combination) with a growing reader fleet and
// reports the writer's mean batch latency next to the readers' served
// throughput and worst-case staleness. Every row runs on the compute view,
// which serving implies, so the "publish" row isolates the
// snapshot-publication overhead from the reader contention on top of it.

// attachQueryLoad is the core.RunConfig.OnPipeline hook used whenever the
// harness serves queries during measured runs (Options.QueryReaders and
// the interference experiment).
func (h *Harness) attachQueryLoad(p *core.Pipeline) func() {
	return h.attachReaders(p, h.opts.QueryReaders)
}

func (h *Harness) attachReaders(p *core.Pipeline, readers int) func() {
	ql, err := core.StartQueryLoad(p, core.QueryLoadConfig{Readers: readers, Seed: h.opts.Seed})
	if err != nil {
		return nil
	}
	return func() { h.qstats = append(h.qstats, ql.Stop()) }
}

// QueryStats aggregates every query load the harness ran.
func (h *Harness) QueryStats() core.QueryLoadStats {
	var agg core.QueryLoadStats
	for _, s := range h.qstats {
		agg.Queries += s.Queries
		agg.Sessions += s.Sessions
		agg.Misses += s.Misses
		agg.Violations += s.Violations
		if s.MaxStaleness > agg.MaxStaleness {
			agg.MaxStaleness = s.MaxStaleness
		}
		if agg.FirstViolation == "" {
			agg.FirstViolation = s.FirstViolation
		}
		agg.Elapsed += s.Elapsed
	}
	return agg
}

// Interference sweeps the reader count over the representative config.
func (h *Harness) Interference() error {
	h.printf("\n== Interference: non-blocking queries vs update throughput (lj, AS, INC+CC) ==\n")
	h.printf("%-10s %14s %14s %14s %12s %10s\n",
		"readers", "mean update", "mean batch", "reader qps", "queries", "staleness")
	h.csvHeader("interference", "readers", "mean_update_s", "mean_batch_s", "reader_qps", "queries", "max_staleness_batches")

	spec, err := gen.Dataset("lj", h.opts.Profile)
	if err != nil {
		return err
	}
	for _, readers := range []int{-1, 0, 1, 4, 16} {
		cfg := core.RunConfig{
			PipelineConfig: core.PipelineConfig{
				DataStructure: "adjshared",
				Algorithm:     "cc",
				Model:         compute.INC,
				Threads:       h.opts.Threads,
				ComputeView:   true,
				ServeQueries:  readers >= 0,
			},
			Dataset: spec,
			Seed:    h.opts.Seed,
			Repeats: h.opts.Repeats,
		}
		var stats core.QueryLoadStats
		if readers > 0 {
			r := readers
			cfg.OnPipeline = func(p *core.Pipeline) func() {
				ql, qerr := core.StartQueryLoad(p, core.QueryLoadConfig{Readers: r, Seed: h.opts.Seed})
				if qerr != nil {
					return nil
				}
				return func() {
					s := ql.Stop()
					stats.Queries += s.Queries
					stats.Sessions += s.Sessions
					if s.MaxStaleness > stats.MaxStaleness {
						stats.MaxStaleness = s.MaxStaleness
					}
					stats.Violations += s.Violations
					stats.Elapsed += s.Elapsed
				}
			}
		}
		res, err := core.Run(cfg)
		if err != nil {
			return err
		}
		meanUpd, meanTot := meanLatencies(res)
		label := fmt.Sprintf("%d", readers)
		switch readers {
		case -1:
			label = "off"
		case 0:
			label = "publish"
		}
		h.printf("%-10s %14s %14s %14.0f %12d %10d\n",
			label, formatSeconds(meanUpd), formatSeconds(meanTot),
			stats.QPS(), stats.Queries, stats.MaxStaleness)
		h.csvRow("interference", label, meanUpd, meanTot, stats.QPS(), stats.Queries, stats.MaxStaleness)
		if stats.Violations > 0 {
			return fmt.Errorf("interference: %d query consistency violations at %d readers", stats.Violations, readers)
		}
	}
	return nil
}

// meanLatencies averages update and total batch latency over every batch
// of every repeat.
func meanLatencies(res *core.RunResult) (upd, tot float64) {
	var n int
	for r := range res.Update {
		for b := range res.Update[r] {
			upd += res.Update[r][b]
			tot += res.Update[r][b] + res.Compute[r][b]
			n++
		}
	}
	if n > 0 {
		upd /= float64(n)
		tot /= float64(n)
	}
	return upd, tot
}
