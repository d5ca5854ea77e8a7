package core_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	"sagabench/internal/durable"
	"sagabench/internal/fault"
	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
	"sagabench/internal/trace"
)

// batchGolden holds, per pipeline configuration, the FNV-64a of every
// non-timing BatchEvent field and of every batch trace's attributes and
// spans for the stream below. Both were recorded at the commit BEFORE the
// stage table replaced the hand-threaded phases, so a changed hash means
// the refactor changed what a batch reports, not a number to re-record.
// The one intended difference is filtered out in canonTraces: the stage
// runner wraps validation in a span the parent did not open.
//
// Re-recorded once since, for the INC rounds that walk their frontier in
// ascending vertex order: the stream runs INC PageRank, whose rounds relax
// in place, so how many rounds a batch takes and what they recompute
// depends on the walk order. With the compute-stats fields masked —
// BatchEvent Iterations/Processed/EdgesTraversed/Triggered/Skipped/
// TriggerFrac, the batch attributes iterations/triggered/skipped, and the
// inc.round spans (their number and their round/vertices/triggered
// attributes) — the canonical text of all four configurations was
// identical to the parent's; nothing else moved.
var batchGolden = map[string][2]uint64{
	"bare":       {0x8ac58799a1abbbde, 0x01d9ac1b25b5e604},
	"view":       {0xb46b7fadcf75a24c, 0x830a485e68b3c5f9},
	"view+serve": {0x5b42d1a62141c903, 0xfdbcbcf8983a08d9},
	"supervised": {0x5cf193e2f723dc60, 0xb04630494b1cc2e9},
}

// goldenCounters are the supervised configuration's final WAL, apply-retry
// and structure counters, recorded at the commit before the structure's
// counts and the WAL figures moved into the BatchRecord (when the durable
// manager, the retry loop and a cumulative-profile diff fed them directly).
var goldenCounters = map[string]uint64{
	"saga_wal_appends_total":        8,
	"saga_wal_bytes_total":          6308,
	"saga_apply_retries_total":      1,
	"saga_ds_edges_ingested_total":  1044,
	"saga_ds_inserted_total":        742,
	"saga_ds_scan_steps_total":      4287,
	"saga_ds_lock_conflicts_total":  0,
	"saga_ds_meta_ops_total":        0,
	"saga_ds_tier_promotions_total": 0,
	"saga_ds_tier_demotions_total":  0,
}

const (
	goldenRejectAt = 2 // stream index of the batch failing validation
	goldenPoisonAt = 5 // stream index of the batch failing every apply
)

// goldenStream is a fixed-seed mixed stream; the supervised configuration
// additionally plants one batch naming a vertex past MaxNodeID.
func goldenStream(withReject bool) crosscheck.Stream {
	s := crosscheck.NewStream(crosscheck.StreamConfig{
		Seed: 20260926, Batches: 9, BatchSize: 60, NumNodes: 40,
		Directed: true, Deletes: true,
	})
	if withReject {
		s[goldenRejectAt] = crosscheck.Step{Adds: graph.Batch{{Src: 5000, Dst: 1, Weight: 1}}}
	}
	return s
}

// timingAttrs are the attribute keys whose values are clock readings.
var timingAttrs = map[string]bool{"update_ns": true, "compute_ns": true, "fsync_ns": true, "straggler": true}

func canonAttrs(attrs []trace.Attr) string {
	out := make([]string, 0, len(attrs))
	for _, a := range attrs {
		switch {
		case timingAttrs[a.Key]:
			out = append(out, a.Key+"=T")
		case a.Str != "":
			out = append(out, fmt.Sprintf("%s=%q", a.Key, a.Str))
		case a.Float != 0:
			out = append(out, fmt.Sprintf("%s=%g", a.Key, a.Float))
		default:
			out = append(out, fmt.Sprintf("%s=%d", a.Key, a.Int))
		}
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// canonTraces renders each batch trace as its index, its sorted
// attributes and its sorted spans (stage, parent stage, attributes), with
// clock readings masked.
func canonTraces(dumps []trace.BatchDump) string {
	var b strings.Builder
	for _, d := range dumps {
		stageOf := map[int32]string{-1: "-"}
		for _, s := range d.Spans {
			stageOf[s.ID] = s.Stage
		}
		spans := make([]string, 0, len(d.Spans))
		for _, s := range d.Spans {
			if s.Stage == "validate" {
				continue
			}
			spans = append(spans, fmt.Sprintf("%s<%s{%s}", s.Stage, stageOf[s.Parent], canonAttrs(s.Attrs)))
		}
		sort.Strings(spans)
		fmt.Fprintf(&b, "batch %d {%s} %s\n", d.Index, canonAttrs(d.Attrs), strings.Join(spans, " "))
	}
	return b.String()
}

// canonEvents renders every BatchEvent with its clock-derived fields
// zeroed.
func canonEvents(evs []telemetry.BatchEvent) string {
	var b strings.Builder
	for _, ev := range evs {
		ev.TimeUnixMS, ev.UpdateNS, ev.ComputeNS, ev.ViewNS = 0, 0, 0, 0
		ev.WorkerBusyNS, ev.WorkersUsed, ev.Straggler = nil, 0, 0
		fmt.Fprintf(&b, "%+v\n", ev)
	}
	return b.String()
}

func hashOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// goldenRun streams goldenStream through one configuration and returns
// the recorded events, batch traces and metrics.
func goldenRun(t *testing.T, name string) ([]telemetry.BatchEvent, []trace.BatchDump, *telemetry.Registry, int) {
	t.Helper()
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(reg, telemetry.NewEventSink(&buf))
	tr := trace.New(trace.Config{DS: "adjshared", Alg: "pr", Model: "inc", Flight: 64})
	cfg := core.PipelineConfig{
		DataStructure: "adjshared",
		Algorithm:     "pr",
		Model:         compute.INC,
		Directed:      true,
		Threads:       1,
		Compute:       durOpts,
		ComputeView:   name != "bare",
		ServeQueries:  name == "view+serve" || name == "supervised",
		Telemetry:     rec,
		Tracer:        tr,
	}
	stream := goldenStream(name == "supervised")
	if name == "supervised" {
		cfg.Durable = &durable.Config{
			Dir:             t.TempDir(),
			Fsync:           durable.FsyncAlways,
			CheckpointEvery: 3,
			MaxRetries:      1,
			RetryBackoff:    time.Microsecond,
			MaxNodeID:       100,
			// The reject consumes no sequence number, so stream index
			// goldenPoisonAt is logged as seq goldenPoisonAt.
			ApplyProbe: func(seq uint64, _, _ graph.Batch) error {
				if seq == goldenPoisonAt {
					return fmt.Errorf("injected apply failure")
				}
				return nil
			},
		}
		sup, err := core.NewSupervisor(core.SupervisorConfig{Pipeline: cfg})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range stream {
			if err := sup.Submit(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		if err := sup.Close(); err != nil {
			t.Fatal(err)
		}
		if rep := sup.Report(); len(rep.Quarantined) != 2 || rep.Restarts != 0 {
			t.Fatalf("want the reject and the poison batch quarantined and no restart, got %+v", rep)
		}
	} else {
		p, err := core.NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range stream {
			if _, err := p.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return evs, tr.Flight().Snapshot(), reg, len(stream)
}

// TestBatchGolden is the equivalence test of the stage-table refactor:
// what a batch reports (events, trace attributes, spans) is unchanged in
// every configuration, and every submitted batch finishes exactly one
// batch trace whatever its outcome.
func TestBatchGolden(t *testing.T) {
	for _, name := range []string{"bare", "view", "view+serve", "supervised"} {
		t.Run(name, func(t *testing.T) {
			evs, dumps, reg, submitted := goldenRun(t, name)
			events, traces := canonEvents(evs), canonTraces(dumps)
			want := batchGolden[name]
			if got := hashOf(events); got != want[0] {
				t.Errorf("BatchEvent hash %#x, recorded %#x (-v prints the canonical text)", got, want[0])
			}
			if got := hashOf(traces); got != want[1] {
				t.Errorf("batch trace hash %#x, recorded %#x (-v prints the canonical text)", got, want[1])
			}
			if t.Failed() && testing.Verbose() {
				t.Logf("events:\n%straces:\n%s", events, traces)
			}
			if name == "supervised" {
				for metric, want := range goldenCounters {
					if got := reg.Counter(metric, "").Value(); got != want {
						t.Errorf("%s = %d, recorded %d", metric, got, want)
					}
				}
			}
			// A live durable batch ends with a wal_seq, a quarantine cause or
			// an error; a batch replayed by the post-poison rebuild carries
			// none of them. Without durability every trace is a live batch.
			live := 0
			for _, d := range dumps {
				isLive := name != "supervised"
				for _, a := range d.Attrs {
					if a.Key == "wal_seq" || a.Key == "quarantined" || a.Key == "error" {
						isLive = true
					}
				}
				if isLive {
					live++
				}
			}
			if live != submitted {
				t.Errorf("%d live batch traces finished for %d submitted batches", live, submitted)
			}
		})
	}
}

// TestOneTracePerBatchOutcome drives the durable outcomes the golden
// stream does not reach — a WAL fault the policy absorbs, one it does
// not, a checkpoint fault, and a fence landing mid-batch — and checks each
// processed batch still finishes exactly one trace.
func TestOneTracePerBatchOutcome(t *testing.T) {
	cases := []struct {
		name, faults string
		policy       core.DegradePolicy
		fenceAt      uint64
		wantErr      bool
	}{
		{name: "wal-absorbed", faults: "enospc(wal-append,2)", policy: core.DegradeContinue},
		{name: "wal-unabsorbed", faults: "enospc(wal-append,2)", policy: core.DegradeFail, wantErr: true},
		{name: "checkpoint-absorbed", faults: "enospc(ckpt-write,1)", policy: core.DegradeContinue},
		{name: "checkpoint-unabsorbed", faults: "enospc(ckpt-write,1)", policy: core.DegradeFail, wantErr: true},
		{name: "fenced-mid-batch", fenceAt: 2, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New(trace.Config{Flight: 16})
			var p *core.Pipeline
			dcfg := &durable.Config{
				Fsync:           durable.FsyncAlways,
				CheckpointEvery: 2,
				ApplyProbe: func(seq uint64, _, _ graph.Batch) error {
					if tc.fenceAt > 0 && seq == tc.fenceAt {
						p.Fence()
					}
					return nil
				},
			}
			if tc.faults != "" {
				dcfg.IO = fault.MustParseSchedule(tc.faults, 1)
			}
			cfg := durableCfg(t.TempDir(), "pr", dcfg)
			cfg.DegradePolicy = tc.policy
			cfg.Tracer = tr
			var err error
			if p, err = core.NewPipeline(cfg); err != nil {
				t.Fatal(err)
			}
			defer p.Abandon()
			ran, failed := 0, false
			for _, s := range durableStream(4) {
				// A failing batch ran too and must have sealed its trace;
				// the refusals after it never start one.
				ran++
				if _, err := p.ProcessMixed(core.MixedBatch{Adds: s.Adds, Dels: s.Dels}); err != nil {
					failed = true
					break
				}
			}
			if failed != tc.wantErr {
				t.Fatalf("stream failed=%v, want %v", failed, tc.wantErr)
			}
			dumps := tr.Flight().Snapshot()
			if len(dumps) != ran {
				t.Fatalf("%d batch traces finished for %d batches run", len(dumps), ran)
			}
			if failed {
				last := dumps[len(dumps)-1]
				if !strings.Contains(canonAttrs(last.Attrs), "error=") {
					t.Fatalf("failed batch's trace carries no error: %s", canonAttrs(last.Attrs))
				}
			}
		})
	}
}
