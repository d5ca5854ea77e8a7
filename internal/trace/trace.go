// Package trace encodes the pipeline's batch records as batch traces: one
// span per completed stage attempt — validation, WAL append, update,
// compute-view refresh, compute (with one child per worker range), epoch
// publish, checkpoint — with the stage's own clock readings and typed
// attributes (batch sequence, dirty fraction, triggered counts, ...).
// internal/core builds each finished trace from its BatchRecord and hands
// it to Record. Finished traces land in a lock-free flight-recorder ring
// (ring.go) holding the last N batches, which is dumped as Chrome
// trace-event JSON (chrome.go, Perfetto-loadable) on poison-batch
// quarantine, on demand via the telemetry server's /trace endpoint, and at
// process exit; a JSONL stream sink (jsonl.go) can additionally persist
// every finished trace.
//
// The tracer is nil-safe: a nil *Tracer is a disabled tracer whose every
// method no-ops without touching the clock or the heap.
//
// Timestamps are the product, so the package is NOT marked
// saga:deterministic; trace output never feeds replayed state, values, or
// frontier order.
//
// saga:paniccapture — the package spawns no goroutines today, and any it
// grows must capture panics (enforced by sagavet; see internal/analysis).
package trace

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// Config selects the tracer's identity and outputs.
type Config struct {
	// DS, Alg, Model identify the traced pipeline; they are stamped on
	// every batch trace and become pprof label values.
	DS    string
	Alg   string
	Model string
	// Flight is the flight-recorder ring capacity in complete batch
	// traces (default 16).
	Flight int
	// Spans, when non-nil, receives every finished batch trace as one
	// JSONL line (see NewSink).
	Spans *Sink
	// PprofLabels propagates batch/stage/ds/alg pprof labels around the
	// pipeline phases, so CPU profiles from the telemetry endpoint
	// attribute samples to pipeline stages.
	PprofLabels bool
}

// Tracer owns the flight recorder and span sinks of one pipeline. A nil
// *Tracer is a valid disabled tracer.
type Tracer struct {
	cfg  Config
	ring *FlightRecorder
	seq  atomic.Uint64
}

// New builds an enabled tracer.
func New(cfg Config) *Tracer {
	if cfg.Flight <= 0 {
		cfg.Flight = 16
	}
	return &Tracer{cfg: cfg, ring: NewFlightRecorder(cfg.Flight)}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// PprofLabels reports whether pipeline phases should run under pprof
// labels (false for a disabled tracer).
func (t *Tracer) PprofLabels() bool { return t != nil && t.cfg.PprofLabels }

// Flight exposes the flight-recorder ring (nil for a disabled tracer).
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.ring
}

// NextSeq numbers the batch trace about to start: the tracer's own
// monotone sequence, so restarts and repeats stay distinguishable in the
// ring and in pprof labels. 0 for a disabled tracer.
func (t *Tracer) NextSeq() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Add(1)
}

// Record stamps one finished batch trace with the tracer's pipeline
// identity and publishes it to the flight recorder and the span sink. The
// tracer keeps d: the caller must not mutate it afterwards.
func (t *Tracer) Record(d *BatchDump) {
	if t == nil {
		return
	}
	d.DS, d.Alg, d.Model = t.cfg.DS, t.cfg.Alg, t.cfg.Model
	t.ring.add(d)
	if t.cfg.Spans != nil {
		// The sink's first error is sticky; a dead sink must not stall
		// the pipeline.
		_ = t.cfg.Spans.WriteDump(*d)
	}
}

// WriteTrace renders the flight-recorder ring as Chrome trace-event JSON
// (it implements telemetry.TraceSource, serving the /trace endpoint).
func (t *Tracer) WriteTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("trace: disabled tracer has no flight recorder")
	}
	return WriteChrome(w, t.ring.Snapshot())
}

// DumpChromeFile writes the flight-recorder ring to path as Chrome
// trace-event JSON (the automatic dump target for panics and poison-batch
// quarantines).
func (t *Tracer) DumpChromeFile(path string) error {
	if t == nil {
		return fmt.Errorf("trace: disabled tracer has no flight recorder")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChrome(f, t.ring.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Attr is one typed span or batch attribute. Exactly one of Int, Float,
// Str is meaningful; constructors set the matching field and JSON keeps
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

// value renders the attribute for Chrome args.
func (a Attr) value() any {
	switch {
	case a.Str != "":
		return a.Str
	case a.Float != 0:
		return a.Float
	default:
		return a.Int
	}
}

// SpanRecord is one completed span as stored in a batch trace. Times are
// monotonic nanosecond offsets from the batch start.
type SpanRecord struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // -1 for phase (root-level) spans
	Worker  int32  `json:"worker"` // -1 for coordinator spans
	Stage   string `json:"stage"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}
