package telemetry_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sagabench/internal/telemetry"
)

// TestEventLogRoundTrip writes events through the sink — two applied
// batches and a traced quarantined one — and decodes them back, checking
// field-for-field equality and one-line-per-event framing.
func TestEventLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewEventSink(&buf)
	want := []telemetry.BatchEvent{
		{
			TimeUnixMS: 1700000000000, Batch: 0, Repeat: 1, Edges: 1000, Nodes: 512,
			UpdateNS: 1234567, ComputeNS: 7654321, Affected: 321, Iterations: 3,
			Processed: 4096, EdgesTraversed: 65536, Triggered: 1024, Skipped: 3072,
			TriggerFrac: 0.25, DSEdgesIngested: 1000, DSInserted: 990,
			DSScanSteps: 12345, DSLockConflicts: 17, DSMetaOps: 5, DSImbalance: 1.5,
		},
		{TimeUnixMS: 1700000000100, Batch: 1, Edges: 500, Deletes: 50, Nodes: 600, UpdateNS: 1, ComputeNS: 2},
		{
			TimeUnixMS: 1700000000200, DS: "hybrid", Alg: "cc", Model: "inc", Batch: 2,
			Quarantined: "injected apply failure", WALSeq: 3, WALBytes: 812, Retries: 1,
			Seq: 9, StartUnixNS: 1700000000190000000, DurNS: 10_000, Spans: []telemetry.SpanRecord{
				{ID: 0, Parent: -1, Worker: -1, Stage: "wal.append", EndNS: 1_000,
					Attrs: []telemetry.Attr{telemetry.Int("seq", 3), telemetry.Float("dirty_frac", 0.5)}},
				{ID: 1, Parent: -1, Worker: -1, Stage: "update", StartNS: 1_000, EndNS: 2_000,
					Attrs: []telemetry.Attr{telemetry.Str("error", "injected apply failure")}},
			},
		},
	}
	for i := range want {
		if err := sink.Write(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 3 {
		t.Fatalf("sink count = %d", sink.Count())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("JSONL framing: %d lines, want 3", lines)
	}
	got, err := telemetry.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[0].Total().Nanoseconds() != want[0].UpdateNS+want[0].ComputeNS {
		t.Fatal("Total() mismatch")
	}
}

// TestRecorderNilSafe checks that every method of a nil recorder is a
// no-op rather than a panic.
func TestRecorderNilSafe(t *testing.T) {
	var r *telemetry.Recorder
	recordAll(r, &telemetry.BatchEvent{}, &telemetry.BatchEvent{})
	if r.Registry() != nil {
		t.Fatal("nil recorder registry != nil")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderDrivesMetrics checks that RecordBatch lands in both the
// registry and the sink, counts only applied batches as processed, and
// stamps missing timestamps.
func TestRecorderDrivesMetrics(t *testing.T) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(reg, telemetry.NewEventSink(&buf))
	rec.RecordBatch(&telemetry.BatchEvent{
		Applied: true, Edges: 10, Nodes: 5, UpdateNS: 2_000_000, ComputeNS: 3_000_000,
		Affected: 4, Processed: 8, Triggered: 2, Skipped: 6, TriggerFrac: 0.25,
	})
	rec.RecordBatch(&telemetry.BatchEvent{Applied: true, Edges: 20, Nodes: 9, UpdateNS: 1_000_000, ComputeNS: 1_000_000})
	// A quarantined batch is logged and counted quarantined, not processed.
	rec.RecordBatch(&telemetry.BatchEvent{Edges: 40, Quarantined: "injected"})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"saga_batches_total 2",
		"saga_edges_ingested_total 30",
		"saga_graph_nodes 9",
		"saga_batch_latency_seconds_count 2",
		"saga_inc_triggered_total 2",
		"saga_quarantined_batches_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	evs, err := telemetry.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("sink got %d events", len(evs))
	}
	if evs[0].TimeUnixMS == 0 {
		t.Fatal("timestamp not stamped")
	}
}
