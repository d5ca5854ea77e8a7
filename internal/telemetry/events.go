package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// BatchEvent is one structured record of the per-batch event log —
// everything the paper measures per batch, plus the data structure's
// contention and imbalance counts, as a single JSONL line.
type BatchEvent struct {
	// TimeUnixMS is the wall-clock completion time of the batch.
	TimeUnixMS int64 `json:"ts_ms"`
	// Repeat is the stream repetition index of the measurement harness.
	Repeat int `json:"repeat,omitempty"`
	// Batch is the batch index within the pipeline's lifetime.
	Batch int `json:"batch"`
	// Edges is the insertion count of the batch; Deletes the deletion
	// count (mixed streams only).
	Edges   int `json:"edges"`
	Deletes int `json:"deletes,omitempty"`
	// Nodes is NumNodes after the update phase.
	Nodes int `json:"nodes"`
	// UpdateNS / ComputeNS are the two phase latencies of Equation 1.
	UpdateNS  int64 `json:"update_ns"`
	ComputeNS int64 `json:"compute_ns"`
	// Affected is the size of the deduplicated affected vertex set handed
	// to the compute phase (Algorithm 1).
	Affected int `json:"affected"`

	// Compute-phase work (engine stats of the batch).
	Iterations     int    `json:"iterations"`
	Processed      uint64 `json:"processed"`
	EdgesTraversed uint64 `json:"edges_traversed"`
	// Triggered / Skipped split the processed vertices of an INC engine
	// into those whose recomputation propagated and those absorbed by the
	// triggering threshold; TriggerFrac is Triggered/Processed.
	Triggered   uint64  `json:"triggered,omitempty"`
	Skipped     uint64  `json:"skipped,omitempty"`
	TriggerFrac float64 `json:"trigger_frac,omitempty"`

	// Per-worker compute-phase busy time of the batch (nanoseconds,
	// indexed by worker slot; omitted for single-threaded runs with no
	// skew to report). WorkersUsed counts the slots that did any work,
	// and Straggler is max/mean busy time over those slots — the
	// edge-balanced scheduling skew of the batch, visible without
	// loading a trace (1.0 = perfectly balanced).
	WorkerBusyNS []int64 `json:"worker_busy_ns,omitempty"`
	WorkersUsed  int     `json:"workers_used,omitempty"`
	Straggler    float64 `json:"straggler,omitempty"`

	// Compute-view refresh of the batch (zero when the view is off):
	// refresh wall time, fraction of vertices re-flattened, adjacency
	// entries written into the mirror, and whether the refresh compacted
	// the mirror (or first built it) instead of relocating dirty runs.
	ViewNS        int64   `json:"view_ns,omitempty"`
	ViewDirtyFrac float64 `json:"view_dirty_frac,omitempty"`
	ViewWritten   int     `json:"view_written,omitempty"`
	ViewFull      bool    `json:"view_full,omitempty"`

	// Epoch is the publication number of the batch's published snapshot
	// (zero when non-blocking queries are off).
	Epoch uint64 `json:"epoch,omitempty"`

	// The data structure's counts of the batch (the pipeline's
	// BatchRecord.DS, a ds.UpdateProfile).
	DSEdgesIngested uint64  `json:"ds_edges_ingested,omitempty"`
	DSInserted      uint64  `json:"ds_inserted,omitempty"`
	DSScanSteps     uint64  `json:"ds_scan_steps,omitempty"`
	DSLockConflicts uint64  `json:"ds_lock_conflicts,omitempty"`
	DSMetaOps       uint64  `json:"ds_meta_ops,omitempty"`
	DSImbalance     float64 `json:"ds_imbalance,omitempty"`
	// Tier transitions of degree-adaptive structures (hybrid): vertex
	// representation upgrades and downgrades this batch triggered.
	DSTierPromotions uint64 `json:"ds_tier_promotions,omitempty"`
	DSTierDemotions  uint64 `json:"ds_tier_demotions,omitempty"`
}

// Total is the batch processing latency in nanoseconds (Equation 1).
func (e *BatchEvent) Total() time.Duration {
	return time.Duration(e.UpdateNS + e.ComputeNS)
}

// LineSink writes JSON values as buffered JSONL lines. It is safe for
// concurrent use; writes are buffered until Flush or Close, and the first
// encode error is sticky. It is the shared machinery behind the per-batch
// BatchEvent log (EventSink) and the trace layer's span stream
// (internal/trace.Sink).
type LineSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error
	n   uint64
}

// NewLineSink wraps w. If w is also an io.Closer, Close closes it after
// flushing.
func NewLineSink(w io.Writer) *LineSink {
	bw := bufio.NewWriter(w)
	s := &LineSink{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Encode appends one JSONL line. The first encode error is sticky and
// returned by every later call.
func (s *LineSink) Encode(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := s.enc.Encode(v); err != nil {
		s.err = err
		return err
	}
	s.n++
	return nil
}

// Count reports the number of lines written so far.
func (s *LineSink) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Flush drains the buffer to the underlying writer.
func (s *LineSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// Close flushes and closes the underlying writer if it is closable.
func (s *LineSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ferr := s.bw.Flush()
	if s.err == nil {
		s.err = ferr
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
		s.c = nil
	}
	return s.err
}

// EventSink writes BatchEvents as JSON lines to a writer: a typed LineSink.
type EventSink struct {
	ls *LineSink
}

// NewEventSink wraps w. If w is also an io.Closer, Close closes it after
// flushing.
func NewEventSink(w io.Writer) *EventSink {
	return &EventSink{ls: NewLineSink(w)}
}

// Write appends one event line. The first encode error is sticky and
// returned by every later call.
func (s *EventSink) Write(ev *BatchEvent) error { return s.ls.Encode(ev) }

// Count reports the number of events written so far.
func (s *EventSink) Count() uint64 { return s.ls.Count() }

// Flush drains the buffer to the underlying writer.
func (s *EventSink) Flush() error { return s.ls.Flush() }

// Close flushes and closes the underlying writer if it is closable.
func (s *EventSink) Close() error { return s.ls.Close() }

// ReadEvents decodes a JSONL event stream back into BatchEvents (the
// inverse of EventSink for tooling and tests).
func ReadEvents(r io.Reader) ([]BatchEvent, error) {
	dec := json.NewDecoder(r)
	var out []BatchEvent
	for {
		var ev BatchEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, ev)
	}
}
