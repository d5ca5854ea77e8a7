package elio

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzRead checks the parser never panics and that accepted inputs
// round-trip through Write/Read.
func FuzzRead(f *testing.F) {
	f.Add("0 1\n1 2 3\n")
	f.Add("# comment\n5 6 7.25\n")
	f.Add("")
	f.Add("999 999999 0.5")
	f.Add("a b c")
	f.Add("1 2 3 4 5")
	f.Add("1 2 NaN\n")
	f.Add("1 2 +Inf\n3 4 -inf\n")
	f.Add("1 2 3e9\n2 3 1e39\n")
	f.Fuzz(func(t *testing.T, input string) {
		edges, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, e := range edges {
			if w := float64(e.Weight); !(w > 0) || math.IsInf(w, 0) {
				t.Fatalf("accepted edge %v: weight is not positive and finite", e)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, edges); err != nil {
			t.Fatalf("Write of accepted edges failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-Read of Write output failed: %v", err)
		}
		if len(back) != len(edges) {
			t.Fatalf("round trip changed edge count %d -> %d", len(edges), len(back))
		}
		for i := range edges {
			if back[i].Src != edges[i].Src || back[i].Dst != edges[i].Dst {
				t.Fatalf("round trip changed edge %d: %v -> %v", i, edges[i], back[i])
			}
		}
	})
}
