package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"syscall"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/fault"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
)

func pipelineCfg(dsName, alg string, model compute.Model) core.PipelineConfig {
	return core.PipelineConfig{
		DataStructure: dsName,
		Algorithm:     alg,
		Model:         model,
		Directed:      true,
		Threads:       2,
	}
}

func TestPipelineProcess(t *testing.T) {
	p, err := core.NewPipeline(pipelineCfg("adjshared", "bfs", compute.INC))
	if err != nil {
		t.Fatal(err)
	}
	lat := p.Process(graph.Batch{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	if lat.Update < 0 || lat.Compute < 0 {
		t.Fatal("negative latency")
	}
	if lat.Total() != lat.Update+lat.Compute {
		t.Fatal("Total != Update+Compute")
	}
	vals := p.Values()
	if len(vals) != 3 || vals[0] != 0 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("BFS depths after batch: %v", vals)
	}
	// Second batch extends the graph incrementally.
	p.Process(graph.Batch{{Src: 2, Dst: 3, Weight: 1}})
	vals = p.Values()
	if len(vals) != 4 || vals[3] != 3 {
		t.Fatalf("BFS depths after second batch: %v", vals)
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := core.NewPipeline(pipelineCfg("nope", "bfs", compute.INC)); err == nil {
		t.Error("expected error for unknown data structure")
	}
	if _, err := core.NewPipeline(pipelineCfg("adjshared", "nope", compute.INC)); err == nil {
		t.Error("expected error for unknown algorithm")
	}
	if _, err := core.NewPipeline(pipelineCfg("adjshared", "bfs", "nope")); err == nil {
		t.Error("expected error for unknown model")
	}
}

// TestAffectedOrder pins the size of the endpoint set handed to compute,
// as the batch record reports it: adds and dels, each vertex once, and
// endpoints the graph has never seen skipped.
func TestAffectedOrder(t *testing.T) {
	p, err := core.NewPipeline(pipelineCfg("adjshared", "cc", compute.FS))
	if err != nil {
		t.Fatal(err)
	}
	p.Process(graph.Batch{{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}})
	if got, want := p.LastBatch().Affected, 4; got != want { // 0, 1, 2, 3
		t.Fatalf("insert batch: Affected = %d, want %d", got, want)
	}
	if _, err := p.ProcessMixed(core.MixedBatch{
		Adds: graph.Batch{{Src: 3, Dst: 1, Weight: 1}, {Src: 4, Dst: 3, Weight: 1}},
		Dels: graph.Batch{{Src: 9, Dst: 2, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}, {Src: 0, Dst: 7, Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := p.LastBatch().Affected, 5; got != want { // 3, 1, 4, 2, 0
		t.Fatalf("mixed batch: Affected = %d, want %d", got, want)
	}
}

// TestRunAggregation runs both sources — a generated dataset and a
// caller's edge stream — and checks the series, the observer and the
// stage aggregation.
func TestRunAggregation(t *testing.T) {
	spec := gen.MustDataset("talk", gen.ProfileTiny)
	one := graph.Batch{{Src: 0, Dst: 1, Weight: 1}}
	for _, tc := range []struct {
		name    string
		cfg     core.RunConfig
		batches int // 0: Run must fail
	}{
		{"dataset", core.RunConfig{Dataset: spec, Seed: 1, Repeats: 2}, spec.BatchCount()},
		{"edges", core.RunConfig{Edges: spec.Generate(1), BatchSize: spec.BatchSize, Repeats: 2}, spec.BatchCount()},
		{"edges/one-batch", core.RunConfig{Edges: one, BatchSize: 1, Repeats: 2}, 1},
		{"edges/zero-batch-size", core.RunConfig{Edges: one}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.PipelineConfig = pipelineCfg("dah", "cc", compute.INC)
			seen := 0
			cfg.OnBatch = func(mb core.MixedBatch, r *core.BatchRecord) {
				if r.Index != seen%max(tc.batches, 1) {
					t.Errorf("record index %d at observed batch %d", r.Index, seen)
				}
				seen++
				if len(mb.Adds) == 0 || r.Adds != len(mb.Adds) || !r.Applied {
					t.Errorf("batch %d: %d adds, record %+v", seen, len(mb.Adds), r)
				}
			}
			res, err := core.Run(context.Background(), cfg)
			if tc.batches == 0 {
				if err == nil {
					t.Fatal("zero batch size should error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.BatchCount != tc.batches || len(res.Update) != 2 {
				t.Fatalf("BatchCount=%d repeats=%d, want %d and 2", res.BatchCount, len(res.Update), tc.batches)
			}
			if seen != 2*res.BatchCount {
				t.Fatalf("OnBatch fired %d times, want %d", seen, 2*res.BatchCount)
			}
			checkAggregates(t, res)
		})
	}
}

func checkAggregates(t *testing.T, res *core.RunResult) {
	t.Helper()
	for _, m := range []core.Metric{core.MetricUpdate, core.MetricCompute, core.MetricTotal} {
		ss, err := res.StageSummaries(m)
		if err != nil {
			t.Fatalf("metric %s: %v", m, err)
		}
		if ss[2].N == 0 {
			t.Fatalf("metric %s: empty final stage", m)
		}
		for _, s := range ss {
			if s.Mean < 0 || math.IsNaN(s.Mean) {
				t.Fatalf("metric %s: bad mean %v", m, s.Mean)
			}
		}
	}
	shares, err := res.UpdateShare()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range shares {
		if s < 0 || s > 1 {
			t.Fatalf("update share[%d]=%v outside [0,1]", i, s)
		}
	}
	// Total = update + compute must hold per stage.
	u, err1 := res.StageSummaries(core.MetricUpdate)
	c, err2 := res.StageSummaries(core.MetricCompute)
	tot, err3 := res.StageSummaries(core.MetricTotal)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	for i := range tot {
		if math.Abs(tot[i].Mean-(u[i].Mean+c[i].Mean)) > 1e-12 {
			t.Fatalf("stage %d: total %v != update %v + compute %v", i, tot[i].Mean, u[i].Mean, c[i].Mean)
		}
	}
}

// TestRunDirectedness checks the pipeline inherits directedness from the
// dataset: orkut is undirected, so in-degree equals out-degree globally.
func TestRunDirectedness(t *testing.T) {
	spec := gen.MustDataset("orkut", gen.ProfileTiny)
	spec.NumEdges = 2000
	var pl *core.Pipeline
	_, err := core.Run(context.Background(), core.RunConfig{
		PipelineConfig: core.PipelineConfig{
			DataStructure: "adjshared", Algorithm: "cc", Model: compute.INC, Threads: 2,
		},
		Dataset:    spec,
		Seed:       3,
		OnPipeline: keep(&pl),
	})
	if err != nil {
		t.Fatal(err)
	}
	g := pl.Graph()
	if g.Directed() {
		t.Fatal("orkut pipeline should be undirected")
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.OutDegree(graph.NodeID(v)) != g.InDegree(graph.NodeID(v)) {
			t.Fatalf("vertex %d: out=%d in=%d on undirected graph", v,
				g.OutDegree(graph.NodeID(v)), g.InDegree(graph.NodeID(v)))
		}
	}
}

// TestModelsAgreeEndToEnd runs both compute models through the full Runner
// on a real dataset and checks final values agree (exact for CC).
func TestModelsAgreeEndToEnd(t *testing.T) {
	spec := gen.MustDataset("talk", gen.ProfileTiny)
	var finals [2][]float64
	for i, model := range []compute.Model{compute.FS, compute.INC} {
		var pl *core.Pipeline
		_, err := core.Run(context.Background(), core.RunConfig{
			PipelineConfig: pipelineCfg("stinger", "cc", model),
			Dataset:        spec,
			Seed:           9,
			OnPipeline:     keep(&pl),
		})
		if err != nil {
			t.Fatal(err)
		}
		finals[i] = append([]float64(nil), pl.Values()...)
	}
	if len(finals[0]) != len(finals[1]) {
		t.Fatalf("value lengths differ: %d vs %d", len(finals[0]), len(finals[1]))
	}
	for v := range finals[0] {
		if finals[0][v] != finals[1][v] {
			t.Fatalf("vertex %d: FS=%v INC=%v", v, finals[0][v], finals[1][v])
		}
	}
}

// keep is an OnPipeline hook that keeps the (last) pipeline Run built.
func keep(pl **core.Pipeline) func(*core.Pipeline) func() {
	return func(p *core.Pipeline) func() {
		*pl = p
		return nil
	}
}

// TestRunStopsAtBatchBoundary cancels the run from inside the observer at
// batch k: the batch in flight finishes, the next never starts, and the
// OnPipeline stop and Close still run. The uncancelled input (k < 0) runs
// every batch of both repeats and checks the hook sees each repeat's
// pipeline, open until its stop returns.
func TestRunStopsAtBatchBoundary(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 0, Weight: 1},
		{Src: 3, Dst: 4, Weight: 1}, {Src: 4, Dst: 5, Weight: 1},
		{Src: 5, Dst: 6, Weight: 1}, {Src: 6, Dst: 7, Weight: 1},
	}
	for _, k := range []int{-1, 0, 2} {
		name := "uncancelled"
		if k >= 0 {
			name = fmt.Sprintf("cancel-at-%d", k)
		}
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			sink := telemetry.NewEventSink(&buf)
			cfg := servingCfg()
			cfg.Telemetry = telemetry.NewRecorder(telemetry.NewRegistry(), sink)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var pls []*core.Pipeline
			ran, stopped := 0, 0
			res, err := core.Run(ctx, core.RunConfig{
				PipelineConfig: cfg,
				Edges:          edges,
				BatchSize:      2,
				Repeats:        2,
				OnBatch: func(core.MixedBatch, *core.BatchRecord) {
					if ran == k {
						cancel()
					}
					ran++
				},
				OnPipeline: func(p *core.Pipeline) func() {
					pls = append(pls, p)
					if p.Epochs() == nil {
						t.Error("OnPipeline pipeline does not serve queries")
					}
					return func() {
						stopped++
						// The pipeline must still be open: the last epoch is
						// acquirable inside the stop callback.
						h, err := p.AcquireQuery()
						if err != nil {
							t.Errorf("AcquireQuery in stop: %v", err)
							return
						}
						h.Release()
					}
				},
			})
			want, repeats := 2*4, 2
			if k >= 0 {
				want, repeats = k+1, 1
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Fatalf("Run = %v, %v; want context.Canceled", res, err)
				}
			} else if err != nil || res.BatchCount != 4 || len(res.Update) != 2 {
				t.Fatalf("Run = %+v, %v; want 4 batches, 2 repeats", res, err)
			}
			if ran != want {
				t.Errorf("%d batches ran, want %d", ran, want)
			}
			if got := sink.Count(); got != uint64(want) {
				t.Errorf("event sink wrote %d events, want %d", got, want)
			}
			if len(pls) != repeats || stopped != repeats {
				t.Errorf("hook ran %d/%d times, want %d/%d", len(pls), stopped, repeats, repeats)
			}
			for _, p := range pls {
				if _, err := p.AcquireQuery(); !errors.Is(err, core.ErrNoEpoch) {
					t.Errorf("AcquireQuery after Run = %v, want ErrNoEpoch (pipeline closed)", err)
				}
			}
		})
	}
}

// TestRunReturnsInjectedFault: an injected phase fault on a pipeline
// without durability is the run's error, not a panic, and the OnPipeline
// stop and Close still run.
func TestRunReturnsInjectedFault(t *testing.T) {
	sched, err := fault.ParseSchedule("eio(compute,2)", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := servingCfg()
	cfg.Faults = sched
	var pl *core.Pipeline
	stopped, ran := 0, 0
	_, err = core.Run(context.Background(), core.RunConfig{
		PipelineConfig: cfg,
		Dataset:        gen.MustDataset("talk", gen.ProfileTiny),
		Seed:           1,
		OnBatch:        func(core.MixedBatch, *core.BatchRecord) { ran++ },
		OnPipeline: func(p *core.Pipeline) func() {
			pl = p
			return func() { stopped++ }
		},
	})
	if !fault.IsInjected(err) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Run = %v, want the injected EIO", err)
	}
	if ran != 1 || stopped != 1 {
		t.Fatalf("%d batches ran and the stop ran %d times, want 1 and 1", ran, stopped)
	}
	if _, err := pl.AcquireQuery(); !errors.Is(err, core.ErrNoEpoch) {
		t.Fatalf("AcquireQuery after Run = %v, want ErrNoEpoch (pipeline closed)", err)
	}
}

func TestSeriesUnknownMetricErrors(t *testing.T) {
	res := &core.RunResult{Update: [][]float64{{1}}, Compute: [][]float64{{2}}}
	if _, err := res.Series(core.Metric("bogus"), 0); err == nil {
		t.Fatal("Series should error on an unknown metric")
	}
	if _, err := res.StageSummaries(core.Metric("bogus")); err == nil {
		t.Fatal("StageSummaries should error on an unknown metric")
	}
	if s, err := res.Series(core.MetricTotal, 0); err != nil || len(s) != 1 || s[0] != 3 {
		t.Fatalf("Series(total)=%v err=%v", s, err)
	}
}

func TestBatchLatencyTotal(t *testing.T) {
	l := core.BatchLatency{Update: 3, Compute: 4}
	if l.Total() != 7 {
		t.Fatalf("Total=%v", l.Total())
	}
}
