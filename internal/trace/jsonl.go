package trace

import (
	"encoding/json"
	"io"

	"sagabench/internal/telemetry"
)

// BatchDump is the immutable wire form of one batch trace: what the JSONL
// span stream carries per line, what ReadDumps decodes, and what the
// Chrome exporter renders. Span times are monotonic nanosecond offsets
// from StartUnixNS; spans are in the order their stages completed, a
// compute span followed by its worker children.
type BatchDump struct {
	Seq         uint64       `json:"seq"`
	Index       int          `json:"batch"`
	DS          string       `json:"ds,omitempty"`
	Alg         string       `json:"alg,omitempty"`
	Model       string       `json:"model,omitempty"`
	StartUnixNS int64        `json:"ts_ns"`
	DurNS       int64        `json:"dur_ns"`
	Attrs       []Attr       `json:"attrs,omitempty"`
	Spans       []SpanRecord `json:"spans"`
}

// Sink streams finished batch traces as JSONL, one BatchDump per line, on
// top of the telemetry package's concurrent line-sink machinery.
type Sink struct {
	ls *telemetry.LineSink
}

// NewSink wraps w. If w is also an io.Closer, Close closes it after
// flushing.
func NewSink(w io.Writer) *Sink { return &Sink{ls: telemetry.NewLineSink(w)} }

// WriteDump appends one batch trace line. The first encode error is
// sticky and returned by every later call.
func (s *Sink) WriteDump(d BatchDump) error { return s.ls.Encode(&d) }

// Count reports the number of traces written so far.
func (s *Sink) Count() uint64 { return s.ls.Count() }

// Flush drains the buffer to the underlying writer.
func (s *Sink) Flush() error { return s.ls.Flush() }

// Close flushes and closes the underlying writer if it is closable.
func (s *Sink) Close() error { return s.ls.Close() }

// ReadDumps decodes a JSONL trace stream back into batch dumps (the
// inverse of Sink for tooling and tests).
func ReadDumps(r io.Reader) ([]BatchDump, error) {
	dec := json.NewDecoder(r)
	var out []BatchDump
	for {
		var d BatchDump
		if err := dec.Decode(&d); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, d)
	}
}
