package core_test

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The files under testdata/metrics hold, per goldenRun configuration, the
// final value of every saga_* counter and gauge and every histogram's
// _count series, one "series value" line each, as Registry.WritePrometheus
// renders them. They were recorded at the commit before the per-batch
// metrics were folded into one Recorder.RecordBatch call, when the WAL,
// retry, view-refresh, epoch and quarantine metrics each had their own
// entry point; a changed value means the recorder's input or its encoding
// changed, not a number to re-record.

// clockSeries reports whether a series holds clock readings, which the
// golden files leave out: the latency histograms' buckets and sums, the
// compute workers' busy times, and the straggler ratio's gauge, buckets
// and sum. Every histogram's _count stays pinned.
func clockSeries(series string) bool {
	name, _, _ := strings.Cut(series, "{")
	if strings.HasSuffix(name, "_count") {
		return false
	}
	switch {
	case strings.HasPrefix(name, "saga_compute_worker_busy_"),
		strings.HasPrefix(name, "saga_compute_straggler"):
		return true
	case strings.HasSuffix(name, "_seconds_bucket"), strings.HasSuffix(name, "_seconds_sum"):
		return true
	}
	return false
}

// canonMetrics renders a Prometheus exposition as its series in order,
// one "series value" line each, with clock readings left out.
func canonMetrics(t *testing.T, prom []byte) string {
	t.Helper()
	var b strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(prom))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if !clockSeries(line[:i]) {
			b.WriteString(line + "\n")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// parseCanon maps each series of a canonical rendering to its value.
func parseCanon(s string) map[string]string {
	m := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		i := strings.LastIndexByte(line, ' ')
		m[line[:i]] = line[i+1:]
	}
	return m
}

// TestMetricsGolden pins what the recorder makes of goldenRun's four
// configurations — bare, view, view+serve, and supervised with a reject, a
// poison batch, an apply retry, checkpoints and a recovery — series by
// series: every counter, gauge and histogram count the pipeline feeds,
// whatever entry point feeds it.
func TestMetricsGolden(t *testing.T) {
	for _, name := range []string{"bare", "view", "view+serve", "supervised"} {
		t.Run(name, func(t *testing.T) {
			_, _, reg, _ := goldenRun(t, name)
			var prom bytes.Buffer
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			got := canonMetrics(t, prom.Bytes())
			recorded, err := os.ReadFile(filepath.Join("testdata", "metrics", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			want, have := parseCanon(string(recorded)), parseCanon(got)
			for series, w := range want {
				if g, ok := have[series]; !ok {
					t.Errorf("%s: missing, recorded %s", series, w)
				} else if g != w {
					t.Errorf("%s = %s, recorded %s", series, g, w)
				}
			}
			for series, g := range have {
				if _, ok := want[series]; !ok {
					t.Errorf("%s = %s: not in the recorded set", series, g)
				}
			}
			if t.Failed() && testing.Verbose() {
				t.Logf("metrics:\n%s", got)
			}
		})
	}
}
