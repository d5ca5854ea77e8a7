package telemetry_test

import (
	"testing"
	"time"

	"sagabench/internal/telemetry"
)

// These assertions cross-validate the saga:hotpath annotations on the
// metric primitives (statically enforced by sagavet's hotalloc analyzer):
// counter/gauge updates sit inside kernel inner loops and per-batch
// pipeline phases, so they must stay off the allocator.

func TestMetricOpsDoNotAllocate(t *testing.T) {
	var c telemetry.Counter
	var g telemetry.Gauge
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
	}); allocs != 0 {
		t.Errorf("counter/gauge ops allocate %.1f times per round", allocs)
	}
}

// recordAll calls every Recorder entry point once: RecordBatch for an
// applied batch and for one that was not, and every per-event hook.
func recordAll(r *telemetry.Recorder, ev *telemetry.BatchEvent) {
	o := telemetry.BatchOutcome{WALBytes: 128, WALFsync: time.Millisecond, Retries: 2,
		ViewRefreshed: true, EpochReclaimed: 1, EpochPins: 2}
	r.RecordBatch(ev, o)
	r.RecordBatch(nil, telemetry.BatchOutcome{WALBytes: 64, Quarantined: true})
	r.RecordQueryMiss()
	r.RecordQuerySession(12, 3)
	r.RecordDurableRetry()
	r.RecordCheckpoint()
	r.RecordRecovery(4)
	r.RecordQueueDepth(7)
	r.RecordHealthState(1)
	r.RecordWatchdogFire()
	r.RecordPhaseRestart()
	r.RecordShedBatch()
	r.RecordRefusedIngest()
}

// TestNilRecorderOpsDoNotAllocate pins down the documented contract that
// a nil *Recorder is a near-free no-op: the disabled-telemetry pipeline
// calls these on every batch and every query, so the nil path must not
// allocate either.
func TestNilRecorderOpsDoNotAllocate(t *testing.T) {
	ev := &telemetry.BatchEvent{Edges: 10, Epoch: 3, ViewNS: 1000, WorkerBusyNS: []int64{5, 7}}
	if allocs := testing.AllocsPerRun(1000, func() { recordAll(nil, ev) }); allocs != 0 {
		t.Errorf("nil-recorder ops allocate %.1f times per round", allocs)
	}
}

// TestRecorderOpsDoNotAllocate: without an event sink, a live recorder
// folds every report into the registry without allocating, once the
// per-worker gauges of the event's slots exist.
func TestRecorderOpsDoNotAllocate(t *testing.T) {
	r := telemetry.NewRecorder(telemetry.NewRegistry(), nil)
	ev := &telemetry.BatchEvent{Edges: 10, Epoch: 3, ViewNS: 1000, WorkerBusyNS: []int64{5, 7},
		WorkersUsed: 2, Straggler: 1.2, TimeUnixMS: 1}
	recordAll(r, ev)
	if allocs := testing.AllocsPerRun(1000, func() { recordAll(r, ev) }); allocs != 0 {
		t.Errorf("recorder ops allocate %.1f times per round", allocs)
	}
}
