package bench

import (
	"context"

	"sagabench/internal/archsim"
	"sagabench/internal/core"
	"sagabench/internal/gen"
	"sagabench/internal/perfmon"
)

// Sensitivity probes the robustness of the Section VI conclusions to the
// one modeling knob the reproduction introduces: the simulated machine's
// cache-capacity divisor (DESIGN.md's substitution for running
// gigabyte-scale graphs against the real 22 MB LLC). For each divisor it
// re-profiles one short-tailed and one heavy-tailed configuration and
// reports whether the paper's two qualitative cache findings — compute
// holds the LLC advantage, update holds the L2 advantage — and the
// bandwidth ordering survive.
func (h *Harness) Sensitivity() error {
	h.printf("\n== Sensitivity: Fig 9/10 conclusions vs simulated-machine scale ==\n")
	h.printf("%-8s %-14s %9s %9s %9s %9s %9s  %s\n",
		"machdiv", "config", "updL2", "cmpL2", "updLLC", "cmpLLC", "bw c/u", "conclusions")
	for _, div := range []int{32, 64, 128, 256} {
		for _, cfg := range []struct{ dataset, ds string }{
			{"lj", "adjshared"},
			{"wiki", "dah"},
		} {
			rep, err := h.profileAt(cfg.dataset, cfg.ds, "cc", div)
			if err != nil {
				return err
			}
			const p3 = 2
			upd := rep.Traffic(p3, perfmon.Update)
			cmp := rep.Traffic(p3, perfmon.Compute)
			bwU := rep.BandwidthGBs(p3, perfmon.Update, FullMachineCores)
			bwC := rep.BandwidthGBs(p3, perfmon.Compute, FullMachineCores)
			verdict := "hold"
			if !(cmp.LLCHitRatio() > upd.LLCHitRatio() && upd.L2HitRatio() > cmp.L2HitRatio() && bwC > bwU) {
				verdict = "VIOLATED"
			}
			h.printf("%-8d %-14s %9.2f %9.2f %9.2f %9.2f %9.1f  %s\n",
				div, cfg.dataset+"/"+DSLabel(cfg.ds),
				upd.L2HitRatio(), cmp.L2HitRatio(),
				upd.LLCHitRatio(), cmp.LLCHitRatio(),
				stat0(bwC, bwU), verdict)
		}
	}
	return nil
}

func stat0(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// profileAt is the harness profiler with an explicit machine divisor
// (bypassing the memoized matrix, which is keyed to the default divisor).
func (h *Harness) profileAt(dataset, dsName, alg string, div int) (*perfmon.Report, error) {
	spec, err := gen.Dataset(dataset, h.opts.Profile)
	if err != nil {
		return nil, err
	}
	mc := archsim.ScaledMachine(div)
	return perfmon.Profile(context.Background(), perfmon.Config{
		Run: core.RunConfig{
			PipelineConfig: core.PipelineConfig{
				DataStructure: dsName,
				Algorithm:     alg,
				Model:         "inc",
				Threads:       h.opts.Threads,
			},
			Dataset: spec,
			Seed:    h.opts.Seed,
		},
		Threads: 64,
		Machine: &mc,
	})
}
