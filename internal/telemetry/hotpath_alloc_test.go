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

// TestNilRecorderOpsDoNotAllocate pins down the documented contract that
// a nil *Recorder is a near-free no-op: the disabled-telemetry pipeline
// calls these on every batch and every query, so the nil path must not
// allocate either.
func TestNilRecorderOpsDoNotAllocate(t *testing.T) {
	var r *telemetry.Recorder
	if allocs := testing.AllocsPerRun(1000, func() {
		r.RecordQueryMiss()
		r.RecordQuerySession(12, 3)
		r.RecordEpochPublish(1, 0, 2)
		r.RecordDurableRetry()
		r.RecordWALAppend(128, time.Millisecond)
		r.RecordRetries(2)
		r.RecordQueueDepth(7)
		r.RecordHealthState(1)
	}); allocs != 0 {
		t.Errorf("nil-recorder ops allocate %.1f times per round", allocs)
	}
}
