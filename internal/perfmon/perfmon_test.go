package perfmon_test

import (
	"context"

	"testing"

	"sagabench/internal/archsim"
	"sagabench/internal/compute"
	"sagabench/internal/core"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/perfmon"
)

func profileOf(t *testing.T, dataset, dsName string) *perfmon.Report {
	t.Helper()
	// Tiny datasets exercise a proportionally scaled machine so working
	// sets overflow the caches the way the paper's full-size graphs
	// overflowed the real ones.
	mc := archsim.ScaledMachine(128)
	rep, err := perfmon.Profile(context.Background(), perfmon.Config{
		Run: core.RunConfig{
			PipelineConfig: core.PipelineConfig{
				DataStructure: dsName,
				Algorithm:     "cc",
				Model:         compute.INC,
				Threads:       2,
			},
			Dataset: gen.MustDataset(dataset, gen.ProfileDefault),
			Seed:    21,
		},
		Threads: 16,
		Machine: &mc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestUpdateVsComputeCaches reproduces the paper's Fig 10 finding on the
// profiled run: the compute phase has the higher LLC hit ratio and the
// update phase the higher L2 hit ratio.
func TestUpdateVsComputeCaches(t *testing.T) {
	rep := profileOf(t, "lj", "adjshared")
	const p3 = 2
	upd := rep.Traffic(p3, perfmon.Update)
	cmp := rep.Traffic(p3, perfmon.Compute)
	if cmp.LLCHitRatio() <= upd.LLCHitRatio() {
		t.Errorf("compute LLC hit %.3f should exceed update %.3f",
			cmp.LLCHitRatio(), upd.LLCHitRatio())
	}
	if upd.L2HitRatio() <= cmp.L2HitRatio() {
		t.Errorf("update L2 hit %.3f should exceed compute %.3f",
			upd.L2HitRatio(), cmp.L2HitRatio())
	}
	if upd.L2MPKI() >= cmp.L2MPKI() {
		t.Errorf("update L2 MPKI %.1f should be below compute %.1f",
			upd.L2MPKI(), cmp.L2MPKI())
	}
}

// TestUpdateVsComputeUtilization reproduces Fig 9b/c: at full machine
// width the compute phase consumes more bandwidth and QPI than the update
// phase.
func TestUpdateVsComputeUtilization(t *testing.T) {
	rep := profileOf(t, "lj", "adjshared")
	const cores = 32
	for stage := 0; stage < 3; stage++ {
		bu := rep.BandwidthGBs(stage, perfmon.Update, cores)
		bc := rep.BandwidthGBs(stage, perfmon.Compute, cores)
		if bc <= bu {
			t.Errorf("stage %d: compute bandwidth %.1f <= update %.1f", stage, bc, bu)
		}
		qu := rep.QPIPercent(stage, perfmon.Update, cores)
		qc := rep.QPIPercent(stage, perfmon.Compute, cores)
		if qc <= qu {
			t.Errorf("stage %d: compute QPI%% %.1f <= update %.1f", stage, qc, qu)
		}
	}
}

// TestTailScalingContrast reproduces Fig 9a's contrast: the heavy-tailed
// update (talk on DAH) scales worse than the short-tailed update (lj on
// AS), and compute scales better than either update phase.
func TestTailScalingContrast(t *testing.T) {
	cores := []int{4, 8, 12, 16, 20, 24, 28}
	stail := profileOf(t, "lj", "adjshared")
	htail := profileOf(t, "talk", "dah")

	su := stail.ScalingCurve(perfmon.Update, cores)
	hu := htail.ScalingCurve(perfmon.Update, cores)
	sc := stail.ScalingCurve(perfmon.Compute, cores)

	last := len(cores) - 1
	if !(sc[last] > su[last]) {
		t.Errorf("compute %.2f should out-scale short-tail update %.2f", sc[last], su[last])
	}
	if !(su[last] > hu[last]) {
		t.Errorf("short-tail update %.2f should out-scale heavy-tail update %.2f", su[last], hu[last])
	}
}

// TestHeavyTailUpdateUtilization reproduces Section VI-B: heavy-tailed
// update barely consumes bandwidth and QPI compared to short-tailed update.
func TestHeavyTailUpdateUtilization(t *testing.T) {
	stail := profileOf(t, "lj", "adjshared")
	htail := profileOf(t, "wiki", "dah")
	const cores = 32
	const p3 = 2
	if hb, sb := htail.BandwidthGBs(p3, perfmon.Update, cores), stail.BandwidthGBs(p3, perfmon.Update, cores); hb >= sb {
		t.Errorf("heavy-tail update bandwidth %.2f should be below short-tail %.2f", hb, sb)
	}
}

// TestUndirectedProfile exercises the single-copy (undirected) replay path
// end to end on orkut.
func TestUndirectedProfile(t *testing.T) {
	mc := archsim.ScaledMachine(256)
	rep, err := perfmon.Profile(context.Background(), perfmon.Config{
		Run: core.RunConfig{
			PipelineConfig: core.PipelineConfig{
				DataStructure: "adjshared",
				Algorithm:     "cc",
				Model:         compute.INC,
				Threads:       2,
			},
			Dataset: gen.MustDataset("orkut", gen.ProfileTiny),
			Seed:    4,
		},
		Threads: 8,
		Machine: &mc,
	})
	if err != nil {
		t.Fatal(err)
	}
	for stage := 0; stage < 3; stage++ {
		for _, ph := range []perfmon.Phase{perfmon.Update, perfmon.Compute} {
			tr := rep.Traffic(stage, ph)
			if tr.Accesses == 0 || tr.Instructions == 0 {
				t.Fatalf("stage %d %s: empty traffic", stage, ph)
			}
		}
	}
	// Undirected profiles have no separate in-copy loads.
	if rep.Profiles[2][perfmon.Update].InLoads != nil {
		t.Fatal("undirected profile should carry a single copy's loads")
	}
	if got := rep.Profiles[2][perfmon.Update].HotIn; got != 0 {
		t.Fatalf("undirected HotIn=%v want 0", got)
	}
}

func TestPhaseString(t *testing.T) {
	if perfmon.Update.String() != "update" || perfmon.Compute.String() != "compute" {
		t.Fatal("phase labels wrong")
	}
}
