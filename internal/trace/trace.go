// Package trace keeps the pipeline's batch traces: the telemetry
// BatchEvent of each batch carrying one span per completed stage attempt —
// validation, WAL append, update, compute-view refresh, compute (with one
// child per worker range), epoch publish, checkpoint — with the stage's
// own clock readings and typed attributes. internal/core builds each
// finished event from its BatchRecord and hands it to Record. Finished
// events land in a lock-free flight-recorder ring (ring.go) holding the
// last N batches, which is dumped as Chrome trace-event JSON (chrome.go,
// Perfetto-loadable) on poison-batch quarantine, on demand via the
// telemetry server's /trace endpoint, and at process exit. The event log
// (telemetry.EventSink) persists every event, spans included.
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

	"sagabench/internal/telemetry"
)

// Config sizes the tracer's ring and switches its pprof labels.
type Config struct {
	// Flight is the flight-recorder ring capacity in complete batch
	// traces (default 16).
	Flight int
	// PprofLabels propagates batch/stage/ds/alg/model pprof labels around
	// the pipeline stages, so CPU profiles from the telemetry endpoint
	// attribute samples to pipeline stages.
	PprofLabels bool
}

// Tracer owns a flight recorder, which pipelines of any identity may
// share: each event names its own. A nil *Tracer is a valid disabled
// tracer.
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

// Record publishes one finished batch event to the flight recorder. The
// tracer keeps ev: the caller must not mutate it afterwards.
func (t *Tracer) Record(ev *telemetry.BatchEvent) {
	if t == nil {
		return
	}
	t.ring.add(ev)
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
