package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"sagabench/internal/telemetry"
)

// This file renders batch traces in the Chrome trace-event JSON format
// (the {"traceEvents": [...]} object form), which Perfetto and
// chrome://tracing load directly: open ui.perfetto.dev and drop the file
// in. Each batch becomes a complete ("X") event on the pipeline track
// (tid 0) enclosing its stage spans, with the batch's event — every field
// but the spans — as its args; per-worker range spans land on one
// track per worker slot (tid = worker+1) so stragglers inside a balanced
// round are visible as bar-length differences on adjacent tracks.

// chromeEvent is one trace-event record. Timestamps and durations are
// microseconds; float preserves the tracer's nanosecond resolution.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// chromeTrace is the top-level object form.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePID = 1 // one process track; a batch's args name its pipeline

// WriteChrome renders the batch events as Chrome trace-event JSON.
func WriteChrome(w io.Writer, batches []telemetry.BatchEvent) error {
	events := make([]chromeEvent, 0, 2+len(batches)*8)
	maxWorker := int32(-1)
	for i := range batches {
		d := &batches[i]
		baseUS := float64(d.StartUnixNS) / 1e3
		args := *d
		args.Spans = nil // each span is an event of its own
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("batch %d", d.Batch),
			Cat:  "batch",
			Ph:   "X",
			TS:   baseUS,
			Dur:  float64(d.DurNS) / 1e3,
			PID:  chromePID,
			TID:  0,
			Args: &args,
		})
		for _, s := range d.Spans {
			tid := 0
			if s.Worker >= 0 {
				tid = int(s.Worker) + 1
				if s.Worker > maxWorker {
					maxWorker = s.Worker
				}
			}
			ev := chromeEvent{
				Name: s.Stage,
				Cat:  "span",
				Ph:   "X",
				TS:   baseUS + float64(s.StartNS)/1e3,
				Dur:  float64(s.EndNS-s.StartNS) / 1e3,
				PID:  chromePID,
				TID:  tid,
			}
			if len(s.Attrs) > 0 || s.Parent >= 0 {
				sargs := make(map[string]any, len(s.Attrs)+2)
				sargs["span"] = s.ID
				if s.Parent >= 0 {
					sargs["parent"] = s.Parent
				}
				for _, a := range s.Attrs {
					sargs[a.Key] = a.Value()
				}
				ev.Args = sargs
			}
			events = append(events, ev)
		}
	}
	// Stable event order: by start time, then track.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].TID < events[j].TID
	})
	// Track-name metadata leads the stream.
	meta := []chromeEvent{{
		Name: "thread_name", Ph: "M", PID: chromePID, TID: 0,
		Args: map[string]any{"name": "pipeline"},
	}}
	for w := int32(0); w <= maxWorker; w++ {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: int(w) + 1,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", w)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ms",
	})
}
