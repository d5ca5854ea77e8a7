package trace

import (
	"sort"
	"sync/atomic"

	"sagabench/internal/telemetry"
)

// FlightRecorder is a lock-free ring of the most recent complete batch
// traces. Writers claim a slot with one atomic fetch-add and publish the
// finished *telemetry.BatchEvent with one atomic pointer store; a dump
// reads the slots with atomic loads, so concurrent writers and dumpers
// never block each other (the dump may observe a ring mid-overwrite, in
// which case it simply returns the newest consistent set of batches).
type FlightRecorder struct {
	slots []atomic.Pointer[telemetry.BatchEvent]
	pos   atomic.Uint64
}

// NewFlightRecorder builds a ring holding the last n complete traces.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 16
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[telemetry.BatchEvent], n)}
}

// Cap reports the ring capacity in batch traces.
func (r *FlightRecorder) Cap() int { return len(r.slots) }

// Recorded reports the number of traces ever added (not the current
// occupancy, which is min(Recorded, Cap)).
func (r *FlightRecorder) Recorded() uint64 { return r.pos.Load() }

// add publishes one finished batch trace, evicting the oldest when full.
func (r *FlightRecorder) add(d *telemetry.BatchEvent) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(d)
}

// Snapshot returns the ring's current batch events ordered by trace
// sequence (oldest first). It is safe to call while batches are being
// added.
func (r *FlightRecorder) Snapshot() []telemetry.BatchEvent {
	out := make([]telemetry.BatchEvent, 0, len(r.slots))
	for i := range r.slots {
		if d := r.slots[i].Load(); d != nil {
			out = append(out, *d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
