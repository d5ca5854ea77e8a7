package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// BatchEvent is the one record of a batch, whatever its outcome: what
// the paper measures per batch, the data structure's contention and
// imbalance counts, the batch's WAL figures and fate, and — with a tracer
// attached — its trace (seq, start, duration and stage spans). The
// pipeline builds one per batch; Recorder.RecordBatch folds it into the
// metrics and writes it as one line of the event log, and the tracer keeps
// it in the flight-recorder ring, which renders it as Chrome trace JSON.
type BatchEvent struct {
	// TimeUnixMS is the wall-clock completion time of the batch.
	TimeUnixMS int64 `json:"ts_ms"`
	// DS, Alg and Model name the pipeline that ran the batch: its data
	// structure, algorithm and compute model.
	DS    string `json:"ds,omitempty"`
	Alg   string `json:"alg,omitempty"`
	Model string `json:"model,omitempty"`
	// Repeat is the stream repetition index of the measurement harness.
	Repeat int `json:"repeat,omitempty"`
	// Batch is the batch index within the pipeline's lifetime.
	Batch int `json:"batch"`
	// Applied: the batch is part of the pipeline's state. Only applied
	// batches carry the measurements below the WAL block, and only they
	// count in the per-batch metrics. Replay marks a batch replayed from
	// the WAL by a recovery rather than offered live.
	Applied bool `json:"applied"`
	Replay  bool `json:"replay,omitempty"`
	// Error is the error the batch's caller got; Quarantined the cause of
	// a batch set aside as a poison file instead.
	Error       string `json:"error,omitempty"`
	Quarantined string `json:"quarantined,omitempty"`
	// WALSeq is the sequence number the batch was logged under (0: none),
	// WALBytes and WALFsyncNS the size of its WAL record and the fsync
	// after it (0: no append, or the policy skipped the flush). Retries
	// counts re-attempted applies.
	WALSeq     uint64 `json:"wal_seq,omitempty"`
	WALBytes   int    `json:"wal_bytes,omitempty"`
	WALFsyncNS int64  `json:"wal_fsync_ns,omitempty"`
	Retries    int    `json:"retries,omitempty"`

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

	// Compute-view refresh of the batch (ViewRefreshed false when the view
	// is off): refresh wall time, fraction of vertices re-flattened,
	// adjacency entries written into the mirror, and whether the refresh
	// compacted the mirror (or first built it) instead of relocating dirty
	// runs.
	ViewRefreshed bool    `json:"view_refreshed,omitempty"`
	ViewNS        int64   `json:"view_ns,omitempty"`
	ViewDirtyFrac float64 `json:"view_dirty_frac,omitempty"`
	ViewWritten   int     `json:"view_written,omitempty"`
	ViewFull      bool    `json:"view_full,omitempty"`

	// Epoch is the publication number of the batch's published snapshot
	// (zero when non-blocking queries are off). EpochReclaimed and
	// EpochDropped are the publication's deltas of the superseded-buffer
	// counters (at most one is 1), EpochPins the handles pinning epochs
	// after it.
	Epoch          uint64 `json:"epoch,omitempty"`
	EpochReclaimed uint64 `json:"epoch_reclaimed,omitempty"`
	EpochDropped   uint64 `json:"epoch_dropped,omitempty"`
	EpochPins      int64  `json:"epoch_pins,omitempty"`

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

	// The batch's trace, set only with a tracer attached: the tracer's
	// monotone sequence number (restarts and repeats stay distinguishable),
	// the wall-clock start, the duration, and one span per completed stage
	// attempt in completion order, a compute span followed by its worker
	// children. Span times are nanosecond offsets from StartUnixNS.
	Seq         uint64       `json:"seq,omitempty"`
	StartUnixNS int64        `json:"ts_ns,omitempty"`
	DurNS       int64        `json:"dur_ns,omitempty"`
	Spans       []SpanRecord `json:"spans,omitempty"`
}

// SpanRecord is one completed span of a batch trace. Times are monotonic
// nanosecond offsets from the batch start.
type SpanRecord struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // -1 for stage (root-level) spans
	Worker  int32  `json:"worker"` // -1 for coordinator spans
	Stage   string `json:"stage"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Attr is one typed span attribute. Exactly one of Int, Float, Str is
// meaningful; constructors set the matching field and JSON keeps
// whichever is non-zero.
type Attr struct {
	Key   string  `json:"k"`
	Int   int64   `json:"i,omitempty"`
	Float float64 `json:"f,omitempty"`
	Str   string  `json:"s,omitempty"`
}

// Int, Float and Str build an attribute of each type.
func Int(key string, v int64) Attr     { return Attr{Key: key, Int: v} }
func Float(key string, v float64) Attr { return Attr{Key: key, Float: v} }
func Str(key, v string) Attr           { return Attr{Key: key, Str: v} }

// Value is the attribute's meaningful field.
func (a Attr) Value() any {
	switch {
	case a.Str != "":
		return a.Str
	case a.Float != 0:
		return a.Float
	default:
		return a.Int
	}
}

// Total is the batch processing latency in nanoseconds (Equation 1).
func (e *BatchEvent) Total() time.Duration {
	return time.Duration(e.UpdateNS + e.ComputeNS)
}

// EventSink writes BatchEvents as buffered JSON lines. It is safe for
// concurrent use; writes are buffered until Flush or Close, and the first
// encode error is sticky.
type EventSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error
	n   uint64
}

// NewEventSink wraps w. If w is also an io.Closer, Close closes it after
// flushing.
func NewEventSink(w io.Writer) *EventSink {
	bw := bufio.NewWriter(w)
	s := &EventSink{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Write appends one event line. The first encode error is sticky and
// returned by every later call.
func (s *EventSink) Write(ev *BatchEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := s.enc.Encode(ev); err != nil {
		s.err = err
		return err
	}
	s.n++
	return nil
}

// Count reports the number of events written so far.
func (s *EventSink) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Flush drains the buffer to the underlying writer.
func (s *EventSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// Close flushes and closes the underlying writer if it is closable.
func (s *EventSink) Close() error {
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
