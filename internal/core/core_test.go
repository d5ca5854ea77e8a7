package core_test

import (
	"math"
	"slices"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
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

// TestAffectedOrder pins the endpoint set handed to compute: adds before
// dels, each vertex once at its first sighting (src before dst), and
// endpoints the graph has never seen skipped.
func TestAffectedOrder(t *testing.T) {
	p, err := core.NewPipeline(pipelineCfg("adjshared", "cc", compute.FS))
	if err != nil {
		t.Fatal(err)
	}
	p.Process(graph.Batch{{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}})
	if got, want := p.Affected(), []graph.NodeID{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("insert batch: Affected() = %v, want %v", got, want)
	}
	if _, err := p.ProcessMixed(core.MixedBatch{
		Adds: graph.Batch{{Src: 3, Dst: 1, Weight: 1}, {Src: 4, Dst: 3, Weight: 1}},
		Dels: graph.Batch{{Src: 9, Dst: 2, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}, {Src: 0, Dst: 7, Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Affected(), []graph.NodeID{3, 1, 4, 2, 0}; !slices.Equal(got, want) {
		t.Fatalf("mixed batch: Affected() = %v, want %v", got, want)
	}
}

func TestRunAggregation(t *testing.T) {
	spec := gen.MustDataset("talk", gen.ProfileTiny)
	seen := 0
	res, err := core.Run(core.RunConfig{
		PipelineConfig: pipelineCfg("dah", "cc", compute.INC),
		Dataset:        spec,
		Seed:           1,
		Repeats:        2,
		OnBatch: func(b int, edges graph.Batch, p *core.Pipeline, lat core.BatchLatency) {
			seen++
			if len(edges) == 0 {
				t.Error("empty batch observed")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchCount != spec.BatchCount() {
		t.Fatalf("BatchCount=%d want %d", res.BatchCount, spec.BatchCount())
	}
	if seen != 2*res.BatchCount {
		t.Fatalf("OnBatch fired %d times, want %d", seen, 2*res.BatchCount)
	}
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
	_, err := core.Run(core.RunConfig{
		PipelineConfig: core.PipelineConfig{
			DataStructure: "adjshared", Algorithm: "cc", Model: compute.INC, Threads: 2,
		},
		Dataset: spec,
		Seed:    3,
		OnBatch: func(_ int, _ graph.Batch, p *core.Pipeline, _ core.BatchLatency) { pl = p },
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
		_, err := core.Run(core.RunConfig{
			PipelineConfig: pipelineCfg("stinger", "cc", model),
			Dataset:        spec,
			Seed:           9,
			OnBatch:        func(_ int, _ graph.Batch, p *core.Pipeline, _ core.BatchLatency) { pl = p },
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

func TestRunStreamValidation(t *testing.T) {
	cfg := core.StreamConfig{
		PipelineConfig: pipelineCfg("adjshared", "cc", compute.INC),
		Edges:          graph.Batch{{Src: 0, Dst: 1, Weight: 1}},
	}
	if _, err := core.RunStream(cfg); err == nil {
		t.Fatal("zero batch size should error")
	}
	cfg.BatchSize = 1
	cfg.Repeats = 2
	res, err := core.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchCount != 1 || len(res.Update) != 2 {
		t.Fatalf("BatchCount=%d repeats=%d", res.BatchCount, len(res.Update))
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
