// Command sagaprof is the PCM-style architecture profiler for a single
// configuration: it streams the dataset, replays the memory-access pattern
// on the simulated machine, and prints the per-stage hardware
// characterization (cache hit ratios, MPKI, modeled bandwidth/QPI, and the
// core-scaling curve) for the update and compute phases.
//
// Example:
//
//	sagaprof -dataset wiki -ds dah -alg cc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sagabench/internal/archsim"
	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/perfmon"
)

func main() {
	var (
		dataset = flag.String("dataset", "lj", fmt.Sprintf("dataset %v", gen.DatasetNames()))
		profile = flag.String("profile", "default", "dataset scale: tiny, default, large")
		dsName  = flag.String("ds", "adjshared", fmt.Sprintf("data structure to model %v", ds.Names()))
		alg     = flag.String("alg", "cc", fmt.Sprintf("algorithm %v", compute.AlgNames()))
		model   = flag.String("model", "inc", "compute model: fs or inc")
		threads = flag.Int("threads", 4, "worker threads for the measured run")
		hwth    = flag.Int("hwthreads", 64, "replayed hardware threads")
		machdiv = flag.Int("machdiv", 128, "simulated-machine cache-capacity divisor")
		seed    = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()

	spec, err := gen.Dataset(*dataset, gen.Profile(*profile))
	if err != nil {
		fatal(err)
	}
	mc := archsim.ScaledMachine(*machdiv)
	rep, err := perfmon.Profile(context.Background(), perfmon.Config{
		Run: core.RunConfig{
			PipelineConfig: core.PipelineConfig{
				DataStructure: *dsName,
				Algorithm:     *alg,
				Model:         compute.Model(*model),
				Threads:       *threads,
			},
			Dataset: spec,
			Seed:    *seed,
		},
		Threads: *hwth,
		Machine: &mc,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("dataset=%s ds=%s alg=%s model=%s | machine: L1=%dB L2=%dKB LLC=%dKB/socket (div %d)\n",
		*dataset, *dsName, *alg, *model,
		mc.L1Bytes, mc.L2Bytes>>10, mc.LLCBytes>>10, *machdiv)

	fmt.Printf("%-8s %-8s %9s %9s %9s %9s %10s %8s\n",
		"stage", "phase", "L2 hit", "LLC hit", "L2 MPKI", "LLC MPKI", "GB/s@32c", "QPI%")
	for stage := 0; stage < 3; stage++ {
		for _, ph := range []perfmon.Phase{perfmon.Update, perfmon.Compute} {
			tr := rep.Traffic(stage, ph)
			fmt.Printf("P%-7d %-8s %9.2f %9.2f %9.1f %9.1f %10.2f %7.1f%%\n",
				stage+1, ph,
				tr.L2HitRatio(), tr.LLCHitRatio(), tr.L2MPKI(), tr.LLCMPKI(),
				rep.BandwidthGBs(stage, ph, 32), rep.QPIPercent(stage, ph, 32))
		}
	}

	cores := []int{4, 8, 12, 16, 20, 24, 28, 32}
	fmt.Printf("\nmodeled scaling (P3, normalized to %d cores)\n%-8s", cores[0], "cores")
	for _, c := range cores {
		fmt.Printf("%7d", c)
	}
	fmt.Println()
	for _, ph := range []perfmon.Phase{perfmon.Update, perfmon.Compute} {
		fmt.Printf("%-8s", ph)
		for _, v := range rep.ScalingCurve(ph, cores) {
			fmt.Printf("%7.2f", v)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sagaprof:", err)
	os.Exit(1)
}
