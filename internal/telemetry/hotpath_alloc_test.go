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

// recordAll calls every Recorder entry point once: RecordBatch for ev, an
// applied batch, and for a quarantined one, and every per-event hook.
func recordAll(r *telemetry.Recorder, ev, poison *telemetry.BatchEvent) {
	r.RecordBatch(ev)
	r.RecordBatch(poison)
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
	ev, poison := events()
	if allocs := testing.AllocsPerRun(1000, func() { recordAll(nil, ev, poison) }); allocs != 0 {
		t.Errorf("nil-recorder ops allocate %.1f times per round", allocs)
	}
}

// TestRecorderOpsDoNotAllocate: without an event sink, a live recorder
// folds every report into the registry without allocating, once the
// per-worker gauges of the event's slots exist.
func TestRecorderOpsDoNotAllocate(t *testing.T) {
	r := telemetry.NewRecorder(telemetry.NewRegistry(), nil)
	ev, poison := events()
	recordAll(r, ev, poison)
	if allocs := testing.AllocsPerRun(1000, func() { recordAll(r, ev, poison) }); allocs != 0 {
		t.Errorf("recorder ops allocate %.1f times per round", allocs)
	}
}

// events are an applied batch's event touching every metric RecordBatch
// folds, and a quarantined batch's.
func events() (ev, poison *telemetry.BatchEvent) {
	ev = &telemetry.BatchEvent{Applied: true, Edges: 10, WALBytes: 128, WALFsyncNS: int64(time.Millisecond),
		Retries: 2, ViewRefreshed: true, ViewNS: 1000, Epoch: 3, EpochReclaimed: 1, EpochPins: 2,
		WorkerBusyNS: []int64{5, 7}, WorkersUsed: 2, Straggler: 1.2, TimeUnixMS: 1}
	poison = &telemetry.BatchEvent{WALBytes: 64, Quarantined: "injected", TimeUnixMS: 1}
	return ev, poison
}
