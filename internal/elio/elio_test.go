package elio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sagabench/internal/graph"
)

func TestReadBasic(t *testing.T) {
	in := `# SNAP-style comment
% matrix-market-style comment

0 1
1 2 3.5
2	0	7
`
	edges, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 3.5},
		{Src: 2, Dst: 0, Weight: 7},
	}
	if len(edges) != len(want) {
		t.Fatalf("%d edges want %d", len(edges), len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edge %d: %v want %v", i, edges[i], want[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"0\n",              // too few fields
		"0 1 2 3\n",        // too many fields
		"a 1\n",            // bad source
		"1 b\n",            // bad destination
		"1 2 x\n",          // bad weight
		"1 2 -4\n",         // non-positive weight
		"1 2 0\n",          // zero weight
		"1 2 NaN\n",        // ParseFloat accepts these three without error
		"1 2 Inf\n",        //
		"1 2 -Inf\n",       //
		"1 2 1e39\n",       // overflows float32
		"-1 2\n",           // negative ID
		"999999999999 2\n", // overflow uint32
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader("0 1\n" + c)); err == nil {
			t.Errorf("input %q: expected error", c)
		} else if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("input %q: error %q does not name line 2", c, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	edges := make([]graph.Edge, 500)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.NodeID(rng.Uint32()),
			Dst:    graph.NodeID(rng.Uint32()),
			Weight: graph.Weight(rng.Intn(100) + 1),
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, edges); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(edges) {
		t.Fatalf("%d edges want %d", len(back), len(edges))
	}
	for i := range edges {
		if back[i] != edges[i] {
			t.Fatalf("edge %d: %v want %v", i, back[i], edges[i])
		}
	}
}

// Property: Write then Read is the identity for integral-weight edges.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		var edges []graph.Edge
		for i := 0; i+2 < len(raw); i += 3 {
			edges = append(edges, graph.Edge{
				Src:    graph.NodeID(raw[i]),
				Dst:    graph.NodeID(raw[i+1]),
				Weight: graph.Weight(raw[i+2]%1000 + 1),
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, edges); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(back) != len(edges) {
			return false
		}
		for i := range edges {
			if back[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadEmpty(t *testing.T) {
	edges, err := Read(strings.NewReader("# only comments\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 0 {
		t.Fatalf("expected no edges, got %d", len(edges))
	}
}
