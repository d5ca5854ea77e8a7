// Package telemetry is the runtime observability layer of the streaming
// pipeline. The paper characterizes batch processing post-hoc — per-phase
// latencies (Equation 1), contention and imbalance counters (Fig 9), cache
// behavior (Fig 10) — but a long-lived streaming service must expose the
// same signals live. This package provides:
//
//   - atomic counters, gauges, and fixed-bucket latency histograms with
//     p50/p95/p99 quantile estimates (metrics.go, histogram.go);
//   - the batch's one record, BatchEvent, with its trace spans, and the
//     event log that writes it as one JSONL line per batch (events.go);
//   - a Recorder that encodes each batch's record in one RecordBatch
//     call, whatever the outcome, beside hooks for the events no batch
//     holds (recorder.go) — a nil *Recorder is a valid, near-free no-op;
//   - an HTTP endpoint serving the metrics in Prometheus text format and
//     expvar JSON, with net/http/pprof mounted for live CPU/heap profiling
//     of a running stream (server.go).
//
// Everything is standard library only and safe for concurrent use.
package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
//
// saga:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
//
// saga:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
// saga:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric with its exposition metadata.
type entry struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics and renders them for exposition. Metric
// constructors are get-or-create, so independent components can share a
// metric by name; registration order is preserved in the output.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

func (r *Registry) lookup(name, help string, kind metricKind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different kind", name))
		}
		return e
	}
	e := &entry{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = nil // filled by Histogram()
	}
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter).c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge).g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (nil buckets select DefBuckets). Later calls
// ignore the buckets argument.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	e := r.lookup(name, help, kindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.h == nil {
		e.h = NewHistogram(buckets)
	}
	return e.h
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), histograms with cumulative le buckets plus _sum
// and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	var b strings.Builder
	for _, e := range entries {
		if e.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", e.name, e.help)
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", e.name, e.name, e.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", e.name, e.name, formatFloat(e.g.Value()))
		case kindHistogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", e.name)
			cum := uint64(0)
			bounds, counts := e.h.snapshot()
			for i, ub := range bounds {
				cum += counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", e.name, formatFloat(ub), cum)
			}
			cum += counts[len(bounds)]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", e.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", e.name, formatFloat(e.h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", e.name, cum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a float the way Prometheus clients expect.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	s := fmt.Sprintf("%g", v)
	return s
}

// ExpvarFunc returns an expvar.Func that snapshots the registry as a JSON
// object: counters and gauges by value, histograms as
// {count, sum, p50, p95, p99}. Publish it under a single name to join the
// process's /debug/vars output.
func (r *Registry) ExpvarFunc() expvar.Func {
	return func() any {
		r.mu.Lock()
		entries := append([]*entry(nil), r.entries...)
		r.mu.Unlock()
		out := make(map[string]any, len(entries))
		for _, e := range entries {
			switch e.kind {
			case kindCounter:
				out[e.name] = e.c.Value()
			case kindGauge:
				out[e.name] = e.g.Value()
			case kindHistogram:
				out[e.name] = map[string]any{
					"count": e.h.Count(),
					"sum":   e.h.Sum(),
					"p50":   e.h.Quantile(0.50),
					"p95":   e.h.Quantile(0.95),
					"p99":   e.h.Quantile(0.99),
				}
			}
		}
		return out
	}
}

// Names lists the registered metric names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for _, e := range r.entries {
		names = append(names, e.name)
	}
	sort.Strings(names)
	return names
}
