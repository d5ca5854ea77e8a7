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
// runner wraps validation in a span the parent did not open. Since the
// event log and the trace ring carry one record, the BatchEvent, both
// texts are projections of it: canonEvents onto the fields the event had
// (preEvent), canonTraces onto the batch attributes the trace had
// (preTraceAttrs).
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

func canonAttrs(attrs []telemetry.Attr) string {
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

// preTraceAttrs are the batch attributes a trace carried before the trace
// became the batch's event: an applied batch's sizes, latencies and
// compute stats, then its error, its quarantine cause (and WAL seq), or
// for a live batch of a durable pipeline its WAL seq.
func preTraceAttrs(ev *telemetry.BatchEvent, durable bool) []telemetry.Attr {
	var a []telemetry.Attr
	if ev.Applied {
		a = append(a, telemetry.Int("edges", int64(ev.Edges)))
		if ev.Deletes > 0 {
			a = append(a, telemetry.Int("deletes", int64(ev.Deletes)))
		}
		a = append(a, telemetry.Int("affected", int64(ev.Affected)), telemetry.Int("iterations", int64(ev.Iterations)))
		if ev.Triggered+ev.Skipped > 0 {
			a = append(a, telemetry.Int("triggered", int64(ev.Triggered)), telemetry.Int("skipped", int64(ev.Skipped)))
		}
		if ev.Straggler > 0 {
			a = append(a, telemetry.Float("straggler", ev.Straggler))
		}
		if ev.ViewRefreshed {
			a = append(a, telemetry.Float("view_dirty_frac", ev.ViewDirtyFrac))
		}
		a = append(a, telemetry.Int("update_ns", ev.UpdateNS), telemetry.Int("compute_ns", ev.ComputeNS))
	}
	switch {
	case ev.Error != "":
		a = append(a, telemetry.Str("error", ev.Error))
	case ev.Quarantined != "":
		if ev.WALSeq > 0 {
			a = append(a, telemetry.Int("wal_seq", int64(ev.WALSeq)))
		}
		a = append(a, telemetry.Str("quarantined", ev.Quarantined))
	case durable && !ev.Replay:
		a = append(a, telemetry.Int("wal_seq", int64(ev.WALSeq)))
	}
	return a
}

// canonTraces renders each batch trace as its index, its sorted
// attributes and its sorted spans (stage, parent stage, attributes), with
// clock readings masked.
func canonTraces(ring []telemetry.BatchEvent, durable bool) string {
	var b strings.Builder
	for i := range ring {
		d := &ring[i]
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
		fmt.Fprintf(&b, "batch %d {%s} %s\n", d.Batch, canonAttrs(preTraceAttrs(d, durable)), strings.Join(spans, " "))
	}
	return b.String()
}

// preEvent is a BatchEvent as the log wrote it before the event became
// the batch's one record: an applied batch's fields, in their order.
type preEvent struct {
	TimeUnixMS       int64
	Repeat           int
	Batch            int
	Edges            int
	Deletes          int
	Nodes            int
	UpdateNS         int64
	ComputeNS        int64
	Affected         int
	Iterations       int
	Processed        uint64
	EdgesTraversed   uint64
	Triggered        uint64
	Skipped          uint64
	TriggerFrac      float64
	WorkerBusyNS     []int64
	WorkersUsed      int
	Straggler        float64
	ViewNS           int64
	ViewDirtyFrac    float64
	ViewWritten      int
	ViewFull         bool
	Epoch            uint64
	DSEdgesIngested  uint64
	DSInserted       uint64
	DSScanSteps      uint64
	DSLockConflicts  uint64
	DSMetaOps        uint64
	DSImbalance      float64
	DSTierPromotions uint64
	DSTierDemotions  uint64
}

// canonEvents renders the event of every applied batch, projected onto
// preEvent, with its clock-derived fields zeroed.
func canonEvents(evs []telemetry.BatchEvent) string {
	var b strings.Builder
	for _, ev := range evs {
		if !ev.Applied {
			continue
		}
		fmt.Fprintf(&b, "%+v\n", preEvent{
			Repeat: ev.Repeat, Batch: ev.Batch, Edges: ev.Edges, Deletes: ev.Deletes, Nodes: ev.Nodes,
			Affected: ev.Affected, Iterations: ev.Iterations, Processed: ev.Processed, EdgesTraversed: ev.EdgesTraversed,
			Triggered: ev.Triggered, Skipped: ev.Skipped, TriggerFrac: ev.TriggerFrac,
			ViewDirtyFrac: ev.ViewDirtyFrac, ViewWritten: ev.ViewWritten, ViewFull: ev.ViewFull, Epoch: ev.Epoch,
			DSEdgesIngested: ev.DSEdgesIngested, DSInserted: ev.DSInserted, DSScanSteps: ev.DSScanSteps,
			DSLockConflicts: ev.DSLockConflicts, DSMetaOps: ev.DSMetaOps, DSImbalance: ev.DSImbalance,
			DSTierPromotions: ev.DSTierPromotions, DSTierDemotions: ev.DSTierDemotions,
		})
	}
	return b.String()
}

func hashOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// goldenRun streams goldenStream through one configuration and returns
// the event log, the trace ring and the metrics.
func goldenRun(t *testing.T, name string) ([]telemetry.BatchEvent, []telemetry.BatchEvent, *telemetry.Registry, int) {
	t.Helper()
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(reg, telemetry.NewEventSink(&buf))
	tr := trace.New(trace.Config{Flight: 64})
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
// every configuration, every submitted batch finishes exactly one live
// batch trace and one live log line whatever its outcome, and the ring
// and the log carry the same records.
func TestBatchGolden(t *testing.T) {
	for _, name := range []string{"bare", "view", "view+serve", "supervised"} {
		t.Run(name, func(t *testing.T) {
			evs, ring, reg, submitted := goldenRun(t, name)
			durable := name == "supervised"
			events, traces := canonEvents(evs), canonTraces(ring, durable)
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
			if durable {
				for metric, want := range goldenCounters {
					if got := reg.Counter(metric, "").Value(); got != want {
						t.Errorf("%s = %d, recorded %d", metric, got, want)
					}
				}
			}
			// The ring holds every batch's event, spans included, and the
			// log the same events: the log's timestamps are the ring's.
			if len(ring) != len(evs) {
				t.Fatalf("ring holds %d batches, log %d lines", len(ring), len(evs))
			}
			for i := range evs {
				if evs[i].Seq != ring[i].Seq || len(evs[i].Spans) != len(ring[i].Spans) || evs[i].TimeUnixMS != ring[i].TimeUnixMS {
					t.Fatalf("log line %d (seq %d, %d spans) is not ring entry %d (seq %d, %d spans)",
						i, evs[i].Seq, len(evs[i].Spans), i, ring[i].Seq, len(ring[i].Spans))
				}
			}
			// A batch replayed by the post-poison rebuild is marked; every
			// submitted batch has exactly one unmarked record.
			live := 0
			for _, ev := range evs {
				if !ev.Replay {
					live++
				}
			}
			if live != submitted {
				t.Errorf("%d live batch records for %d submitted batches", live, submitted)
			}
			checkAppliedOnlyMetrics(t, evs, reg)
			if durable {
				checkCauses(t, evs)
			}
		})
	}
}

// checkAppliedOnlyMetrics: the per-batch metrics count the applied
// batches of the log, and only them.
func checkAppliedOnlyMetrics(t *testing.T, evs []telemetry.BatchEvent, reg *telemetry.Registry) {
	t.Helper()
	var applied, edges, affected, processed uint64
	for _, ev := range evs {
		if ev.Applied {
			applied++
			edges += uint64(ev.Edges)
			affected += uint64(ev.Affected)
			processed += ev.Processed
		}
	}
	for metric, want := range map[string]uint64{
		"saga_batches_total":            applied,
		"saga_edges_ingested_total":     edges,
		"saga_affected_vertices_total":  affected,
		"saga_vertices_processed_total": processed,
	} {
		if got := reg.Counter(metric, "").Value(); got != want {
			t.Errorf("%s = %d, the log's applied batches hold %d", metric, got, want)
		}
	}
	if got := reg.Histogram("saga_batch_latency_seconds", "", nil).Count(); got != applied {
		t.Errorf("saga_batch_latency_seconds counts %d batches, the log holds %d applied", got, applied)
	}
}

// checkCauses: the supervised run's rejected and poison batches are
// logged live, not applied, each with its cause, and the poison batch with
// its WAL seq and retry.
func checkCauses(t *testing.T, evs []telemetry.BatchEvent) {
	t.Helper()
	var live []telemetry.BatchEvent
	for _, ev := range evs {
		if !ev.Replay {
			live = append(live, ev)
		}
	}
	for i, ev := range live {
		switch i {
		case goldenRejectAt:
			if ev.Applied || ev.WALSeq != 0 || !strings.Contains(ev.Quarantined, "MaxNodeID") {
				t.Errorf("rejected batch logged as applied=%v seq=%d cause %q", ev.Applied, ev.WALSeq, ev.Quarantined)
			}
		case goldenPoisonAt:
			if ev.Applied || ev.WALSeq != goldenPoisonAt || ev.Retries != 1 || !strings.Contains(ev.Quarantined, "injected apply failure") {
				t.Errorf("poison batch logged as applied=%v seq=%d retries=%d cause %q", ev.Applied, ev.WALSeq, ev.Retries, ev.Quarantined)
			}
		default:
			if !ev.Applied || ev.Quarantined != "" || ev.Error != "" {
				t.Errorf("batch %d logged as applied=%v cause %q error %q", i, ev.Applied, ev.Quarantined, ev.Error)
			}
		}
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
				if last := dumps[len(dumps)-1]; last.Error == "" {
					t.Fatalf("failed batch's trace carries no error: %+v", last)
				}
			}
		})
	}
}
