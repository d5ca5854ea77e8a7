package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"sagabench/internal/stats"
)

// compareFiles prints, for every workload × end-to-end metric present in
// both results files, the two medians, how much worse b is than a (as a
// share of a), the metric's bound, and a verdict:
//
//	ok          b is not worse than a by more than the bound
//	regressed   it is
//	unresolved  either side's own run-to-run spread (quartile distance over
//	            median, needs -runs >= 4) is wider than the bound, so the
//	            files cannot settle the question either way
//
// It reports whether any pairing regressed.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Env != b.Env {
		fmt.Fprintf(out, "warning: environments differ\n  a: %+v\n  b: %+v\n", a.Env, b.Env)
	}
	breach := false
	fmt.Fprintf(out, "%-15s %-13s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.series(w.name, d.Name), b.series(w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := stats.Ratio(mb-ma, ma) // base: a's median
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spread(va) > d.Bound || spread(vb) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				breach = true
			}
			fmt.Fprintf(out, "%-15s %-13s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (n=%d/%d, spread %.1f%%/%.1f%%)\n",
				w.name, d.Name, ma, mb, 100*worse, 100*d.Bound, verdict, len(va), len(vb), 100*spread(va), 100*spread(vb))
		}
	}
	for _, f := range []*resultsFile{a, b} {
		for _, r := range f.Results {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(out, "%-15s seed %d trace %d: %d of %d operations failed, correct=%v\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted, r.Correct)
				breach = true
			}
		}
	}
	return breach, nil
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series collects one metric's value from every untraced run of a workload.
func (f *resultsFile) series(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Results {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// spread is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(xs, n=4)
// computes them — the driver's acceptance rule. Fewer than four values
// support no quartiles and read as zero spread.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return stats.Ratio(q(3)-q(1), median(s))
}
