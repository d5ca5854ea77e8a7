package core_test

import (
	"bytes"
	"strings"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
)

// telemetryRun streams a tiny generated dataset through an instrumented
// pipeline and returns the registry plus the decoded event log.
func telemetryRun(t *testing.T, dsName string, model compute.Model, repeats int) (*telemetry.Registry, []telemetry.BatchEvent) {
	t.Helper()
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(reg, telemetry.NewEventSink(&buf))
	spec, err := gen.Dataset("lj", gen.ProfileTiny)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Run(core.RunConfig{
		PipelineConfig: core.PipelineConfig{
			DataStructure: dsName,
			Algorithm:     "pr",
			Model:         model,
			Threads:       2,
			Telemetry:     rec,
		},
		Dataset: spec,
		Seed:    1,
		Repeats: repeats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return reg, evs
}

// TestRunEmitsBatchEvents checks that a measured run writes exactly one
// JSONL event per processed batch, with phase latencies, affected-set
// sizes, INC trigger fractions, and the per-batch ds counts filled in.
func TestRunEmitsBatchEvents(t *testing.T) {
	reg, evs := telemetryRun(t, "adjchunked", compute.INC, 2)
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	perRepeat := len(evs) / 2
	sawTrigger, sawConflictOrScan := false, false
	var totalIngested uint64
	for i, ev := range evs {
		if ev.Repeat != i/perRepeat {
			t.Fatalf("event %d: repeat tag %d, want %d", i, ev.Repeat, i/perRepeat)
		}
		if ev.Batch != i%perRepeat {
			t.Fatalf("event %d: batch index %d, want %d", i, ev.Batch, i%perRepeat)
		}
		if ev.Edges <= 0 || ev.Nodes <= 0 || ev.UpdateNS < 0 || ev.ComputeNS < 0 {
			t.Fatalf("event %d: implausible fields %+v", i, ev)
		}
		if ev.Affected <= 0 || ev.Processed == 0 {
			t.Fatalf("event %d: no compute work recorded: %+v", i, ev)
		}
		if ev.TriggerFrac > 0 {
			sawTrigger = true
		}
		if ev.DSScanSteps > 0 || ev.DSLockConflicts > 0 {
			sawConflictOrScan = true
		}
		if ev.DSImbalance > 0 && ev.DSImbalance < 1 {
			t.Fatalf("event %d: imbalance %v < 1", i, ev.DSImbalance)
		}
		totalIngested += ev.DSEdgesIngested
	}
	if !sawTrigger {
		t.Error("INC run never reported a trigger fraction")
	}
	if !sawConflictOrScan {
		t.Error("the store reported no per-batch scan/conflict counts")
	}
	if totalIngested == 0 {
		t.Error("the per-batch ds counts never counted an ingested edge")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"saga_batch_latency_seconds_bucket",
		"saga_update_latency_seconds_count",
		"saga_ds_edges_ingested_total",
		"saga_inc_trigger_fraction_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestProcessMixedRecordsDeletes checks the mixed path both records the
// deletion count and reuses the pipeline scratch batch (no per-call
// combined allocation).
func TestProcessMixedRecordsDeletes(t *testing.T) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(reg, telemetry.NewEventSink(&buf))
	p, err := core.NewPipeline(core.PipelineConfig{
		DataStructure: "stinger",
		Algorithm:     "pr",
		Model:         compute.INC,
		Directed:      true,
		Telemetry:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessMixed(core.MixedBatch{
		Adds: graph.Batch{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessMixed(core.MixedBatch{
		Adds: graph.Batch{{Src: 2, Dst: 0, Weight: 1}},
		Dels: graph.Batch{{Src: 0, Dst: 1, Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Deletes != 0 || evs[1].Deletes != 1 {
		t.Fatalf("delete counts = %d,%d want 0,1", evs[0].Deletes, evs[1].Deletes)
	}
	if evs[1].Edges != 1 || evs[1].Affected != 3 {
		t.Fatalf("mixed event = %+v", evs[1])
	}
}

// benchProcess measures Pipeline.Process on a pre-generated stream; rec
// nil benchmarks the disabled (seed-equivalent) path, non-nil the
// instrumented path. The two results bound the telemetry overhead the
// acceptance criteria cap at 2% for the nil case.
func benchProcess(b *testing.B, rec *telemetry.Recorder) {
	spec, err := gen.Dataset("lj", gen.ProfileTiny)
	if err != nil {
		b.Fatal(err)
	}
	edges := spec.Generate(1)
	batches := graph.Batches(edges, spec.BatchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := core.NewPipeline(core.PipelineConfig{
			DataStructure: "adjshared",
			Algorithm:     "pr",
			Model:         compute.INC,
			Directed:      spec.Directed,
			Threads:       2,
			MaxNodesHint:  spec.NumNodes,
			Telemetry:     rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, batch := range batches {
			p.Process(batch)
		}
	}
}

// BenchmarkProcessNilRecorder is the disabled path: identical to the seed
// pipeline except for one nil check per batch.
func BenchmarkProcessNilRecorder(b *testing.B) { benchProcess(b, nil) }

// BenchmarkProcessRecorder is the fully instrumented path (metrics, no
// event sink).
func BenchmarkProcessRecorder(b *testing.B) {
	benchProcess(b, telemetry.NewRecorder(telemetry.NewRegistry(), nil))
}
