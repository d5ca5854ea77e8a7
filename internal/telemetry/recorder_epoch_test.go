package telemetry

import "testing"

// The epoch/query recorder surface: counter values, gauge semantics, and
// the nil-recorder contract that lets the pipeline call these hooks
// unconditionally when telemetry is disabled.

// TestRecordEpochPublish: RecordBatch counts a publication for an applied
// batch's event with an epoch number, folds in its buffer fates, and sets
// the pin gauge; an event without one publishes nothing.
func TestRecordEpochPublish(t *testing.T) {
	reg := NewRegistry()
	r := NewRecorder(reg, nil)
	publish := func(ev BatchEvent) {
		ev.Applied = true
		r.RecordBatch(&ev)
	}

	publish(BatchEvent{Epoch: 1})                                  // first publish: no spare yet
	publish(BatchEvent{Epoch: 2, EpochReclaimed: 1, EpochPins: 2}) // spare reclaimed, two pins live
	publish(BatchEvent{Epoch: 3, EpochDropped: 1, EpochPins: 5})   // spare dropped to the GC
	publish(BatchEvent{Epoch: 4, EpochReclaimed: 1})               // drained again
	publish(BatchEvent{Epoch: 0, EpochReclaimed: 1, EpochPins: 9}) // query serving off: not a publication

	for _, tc := range []struct {
		name string
		want uint64
	}{
		{"saga_epochs_published_total", 4},
		{"saga_epoch_buffers_reclaimed_total", 2},
		{"saga_epoch_buffers_dropped_total", 1},
	} {
		if got := reg.Counter(tc.name, "").Value(); got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, got, tc.want)
		}
	}
	// The pin gauge tracks the latest publication, not a running sum.
	if got := reg.Gauge("saga_query_pinned_handles", "").Value(); got != 0 {
		t.Errorf("saga_query_pinned_handles = %v, want 0 (latest publish)", got)
	}
	publish(BatchEvent{Epoch: 5, EpochPins: 3})
	if got := reg.Gauge("saga_query_pinned_handles", "").Value(); got != 3 {
		t.Errorf("saga_query_pinned_handles = %v, want 3", got)
	}
}

func TestRecordQuerySessionAndMiss(t *testing.T) {
	reg := NewRegistry()
	r := NewRecorder(reg, nil)

	r.RecordQuerySession(10, 0)
	r.RecordQuerySession(0, 2) // a session may release without reading
	r.RecordQuerySession(5, 7)
	r.RecordQueryMiss()
	r.RecordQueryMiss()

	for _, tc := range []struct {
		name string
		want uint64
	}{
		{"saga_query_sessions_total", 3},
		{"saga_queries_total", 15},
		{"saga_query_misses_total", 2},
	} {
		if got := reg.Counter(tc.name, "").Value(); got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, got, tc.want)
		}
	}
	// Staleness is a most-recent-release gauge.
	if got := reg.Gauge("saga_query_staleness_batches", "").Value(); got != 7 {
		t.Errorf("saga_query_staleness_batches = %v, want 7", got)
	}
}

// TestEpochRecorderNilSafety: every epoch/query hook must be callable on
// a nil recorder — the pipeline does exactly that when telemetry is off.
func TestEpochRecorderNilSafety(t *testing.T) {
	var r *Recorder
	r.RecordBatch(&BatchEvent{Applied: true, Epoch: 1, EpochReclaimed: 1, EpochDropped: 1, EpochPins: 9})
	r.RecordQuerySession(3, 1)
	r.RecordQueryMiss()
}

// TestEpochMetricsRegistered: the full metric-name surface the README and
// dashboards reference must exist on a fresh recorder, before any event.
func TestEpochMetricsRegistered(t *testing.T) {
	reg := NewRegistry()
	NewRecorder(reg, nil)
	names := map[string]bool{}
	for _, n := range reg.Names() {
		names[n] = true
	}
	for _, want := range []string{
		"saga_epochs_published_total",
		"saga_epoch_buffers_reclaimed_total",
		"saga_epoch_buffers_dropped_total",
		"saga_query_pinned_handles",
		"saga_queries_total",
		"saga_query_sessions_total",
		"saga_query_misses_total",
		"saga_query_staleness_batches",
	} {
		if !names[want] {
			t.Errorf("metric %s not registered", want)
		}
	}
}
