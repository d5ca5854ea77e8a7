package main

import (
	"fmt"
	"sort"

	"sagabench/internal/stats"
)

// metricDef declares one metric. BENCHMARK.json repeats these tables for
// the driver; bench_test.go fails when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: relative worsening that counts as a regression
}

// endToEnd is what a user of the pipeline sees, on every workload. The
// timing bounds are the largest the driver allows: run-to-run spread
// (quartile distance over median, ten seeds) on the 2-core reference box is
// 3-6 % on a quiet box and 6-8 % beside an intermittent one-thread CPU hog,
// and the box itself drifts by 20 % and more over tens of minutes.
// heap_live_mb repeats within 0.1 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"batch_p50_ms", "ms", "lower", 0.25},
	{"edges_per_s", "updates/s", "higher", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.05},
}

// perLayer names come in two groups: metrics the untraced pipeline pass
// yields through public return values and accessors, then metrics of the
// layer replay. A metric a workload has no use for reads 0 there.
var perLayer = []metricDef{
	// Pipeline pass.
	{Name: "core.batch_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "core.update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.compute_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.unaccounted_share", Unit: "ratio", Better: "lower"},
	{Name: "core.alloc_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "core.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "core.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "core.backlog_max", Unit: "count", Better: "lower"},
	{Name: "core.recovery_s", Unit: "s", Better: "lower"},
	{Name: "ds.view_refresh_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ds.view_dirty_frac_p50", Unit: "ratio", Better: "lower"},
	{Name: "ds.view_full_rebuilds", Unit: "count", Better: "lower"},
	{Name: "compute.iterations_p50", Unit: "count", Better: "lower"},
	{Name: "compute.processed_p50", Unit: "count", Better: "lower"},
	{Name: "compute.trigger_frac_p50", Unit: "ratio", Better: "lower"},
	{Name: "epoch.published", Unit: "count", Better: "higher"},
	{Name: "epoch.pins", Unit: "count", Better: "higher"},
	{Name: "epoch.reclaimed", Unit: "count", Better: "higher"},
	{Name: "epoch.dropped", Unit: "count", Better: "lower"},
	{Name: "epoch.staleness_max", Unit: "count", Better: "lower"},
	{Name: "epoch.query_sessions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "epoch.query_session_p50_us", Unit: "us", Better: "lower"},
	{Name: "durable.checkpoints", Unit: "count", Better: "lower"},
	{Name: "durable.retries", Unit: "count", Better: "lower"},
	{Name: "durable.disk_mb_end", Unit: "MiB", Better: "lower"},
	{Name: "durable.disk_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.gen_s", Unit: "s", Better: "lower"},
	{Name: "bench.verify_s", Unit: "s", Better: "lower"},
	// Layer replay.
	{Name: "ds.update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ds.delete_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ds.refresh_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "compute.notify_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "compute.perform_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "compute.straggler_ratio_p50", Unit: "ratio", Better: "lower"},
	{Name: "epoch.publish_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "epoch.pin_release_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "durable.append_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "durable.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "durable.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "ds.share", Unit: "ratio", Better: "lower"},
	{Name: "ds.view_share", Unit: "ratio", Better: "lower"},
	{Name: "compute.share", Unit: "ratio", Better: "lower"},
	{Name: "epoch.share", Unit: "ratio", Better: "lower"},
	{Name: "durable.share", Unit: "ratio", Better: "lower"},
	{Name: "core.glue_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_cost_ns", Unit: "ns", Better: "lower"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is what the contract allows on the last line of standard
// output, with exactly these keys.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is one run of one workload: the driver's line plus what -out and
// the human-readable listing add.
type result struct {
	driverLine

	Workload      string         `json:"workload"`
	Seed          int64          `json:"seed"`
	Trace         int            `json:"trace"`
	StreamFNV     string         `json:"stream_fnv"`
	ReplayMatches *bool          `json:"replay_matches,omitempty"`
	Samples       map[string]int `json:"samples"`
	Problems      []string       `json:"problems,omitempty"`
}

// quantile is the q-quantile (0..1) of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEndMetrics reduces the pipeline pass to the end-to-end table.
func endToEndMetrics(st *passStats) map[string]float64 {
	// Closed loop: the median batch's rate. The quotient of the whole
	// section is a mean, and one slow stretch of a shared host moves a mean.
	// Open loop: the stream's rate, which must equal the offered one.
	rate := median(st.rates)
	if len(st.rates) == 0 {
		rate = stats.Ratio(float64(st.updates), st.sectionS)
	}
	return map[string]float64{
		"setup_s":      median(st.setupS),
		"batch_p50_ms": median(st.wallMs),
		"edges_per_s":  rate,
		"heap_live_mb": st.heapLiveMB,
	}
}

// perLayerMetrics reduces both passes to the per-layer table.
func perLayerMetrics(st *passStats, rs *replayStats) map[string]float64 {
	wall := sum(st.wallMs)
	m := map[string]float64{
		"core.batch_p95_ms":             quantile(st.wallMs, 0.95),
		"core.update_ms_p50":            median(st.updMs),
		"core.compute_ms_p50":           median(st.cmpMs),
		"core.unaccounted_share":        0,
		"core.alloc_bytes_per_update":   stats.Ratio(float64(st.allocBytes), float64(st.updates)),
		"core.gc_cycles":                float64(st.gcCycles),
		"core.gc_pause_ms_total":        st.gcPauseMs,
		"core.backlog_max":              float64(st.backlogMax),
		"core.recovery_s":               st.recoveryS,
		"ds.view_refresh_ms_p50":        median(st.viewMs),
		"ds.view_dirty_frac_p50":        median(st.viewDirty),
		"ds.view_full_rebuilds":         float64(st.viewFull),
		"compute.iterations_p50":        median(st.iters),
		"compute.processed_p50":         median(st.processed),
		"compute.trigger_frac_p50":      median(st.trigger),
		"epoch.published":               float64(st.epochs.Published),
		"epoch.pins":                    float64(st.reader.sessions - st.reader.failed),
		"epoch.reclaimed":               float64(st.epochs.Reclaimed),
		"epoch.dropped":                 float64(st.epochs.Dropped),
		"epoch.staleness_max":           float64(st.reader.stalenessMax),
		"epoch.query_sessions_per_s":    stats.Ratio(float64(st.reader.sessions), st.reader.wallS),
		"epoch.query_session_p50_us":    median(st.reader.sessionUs),
		"durable.checkpoints":           float64(st.checkpoints),
		"durable.retries":               float64(st.report.DurableRetry),
		"durable.disk_mb_end":           float64(st.diskBytes) / (1 << 20),
		"durable.disk_bytes_per_update": stats.Ratio(float64(st.diskBytes), float64(st.loggedUpdates)),
		"loadgen.late_p95_ms":           quantile(st.lateMs, 0.95),
		"loadgen.gen_s":                 st.genS,
		"bench.verify_s":                st.verifyS,
	}
	if len(st.updMs) > 0 {
		// The open loop has no per-batch phase split: the supervisor's
		// worker keeps BatchLatency to itself.
		m["core.unaccounted_share"] = 1 - stats.Ratio(sum(st.updMs)+sum(st.cmpMs), wall)
	}

	self := rs.self
	replayWall := sum(self["batch.wall"])
	share := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			t += sum(self[n])
		}
		return stats.Ratio(t, replayWall)
	}
	m["ds.update_ms_p50"] = median(self["ds.update"])
	m["ds.delete_ms_p50"] = median(self["ds.delete"])
	m["ds.refresh_ms_p50"] = median(self["ds.refresh"])
	m["compute.notify_ms_p50"] = median(self["compute.notify"])
	m["compute.perform_ms_p50"] = median(self["compute.perform"])
	m["compute.straggler_ratio_p50"] = median(rs.straggler)
	m["epoch.publish_ms_p50"] = median(self["epoch.publish"])
	m["epoch.pin_release_ns_p50"] = median(rs.pinReleaseNs)
	m["durable.append_ms_p50"] = median(self["durable.append"])
	m["durable.checkpoint_ms_p50"] = median(self["durable.checkpoint"])
	m["durable.recover_ms"] = rs.recoverMs
	m["ds.share"] = share("ds.update", "ds.delete", "ds.overwritten")
	m["ds.view_share"] = share("ds.refresh")
	m["compute.share"] = share("compute.notify", "compute.perform")
	m["epoch.share"] = share("epoch.publish")
	m["durable.share"] = share("durable.append", "durable.checkpoint")
	m["core.glue_share"] = stats.Ratio(median(st.wallMs)-median(self["batch.wall"]), median(st.wallMs))
	m["bench.span_cost_ns"] = spanCostNs()
	return m
}

// named attaches units, and insists that exactly the declared metrics are
// present: a missing or stray name is a bug in this file, not a result.
func named(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s declared but not measured", d.Name)
		}
		out[d.Name] = value{v, d.Unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(vals), len(defs))
	}
	return out, nil
}
