package compute

import (
	"fmt"
	"math"

	"sagabench/internal/ds"
	"sagabench/internal/graph"
)

// CheckContrib verifies the INC contribution invariant for the external
// tests: after a phase on g, contrib[u] must equal vals[u]/outdeg(u) (0 at
// out-degree 0) bit for bit, for every vertex. Engines without a
// contribution vector pass vacuously.
func CheckContrib(e Engine, g ds.Graph) error {
	inc, ok := e.(*incEngine)
	if !ok || !inc.spec.degreeSensitive {
		return nil
	}
	if len(inc.contrib) != g.NumNodes() || len(inc.vals) != g.NumNodes() {
		return fmt.Errorf("contrib has %d slots, vals %d, graph %d vertices", len(inc.contrib), len(inc.vals), g.NumNodes())
	}
	for u := range inc.contrib {
		d := g.OutDegree(graph.NodeID(u))
		got, want := inc.contrib.get(u), contribOf(inc.vals.get(u), d)
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("contrib[%d] = %v, but vals[%d]/outdeg = %v/%d = %v", u, got, u, inc.vals.get(u), d, want)
		}
	}
	return nil
}

// PullCuts is the cut of an FS pull sweep over g at the given thread
// count (rounds.pullCuts): by in-degree prefix sum on a flat view,
// uniform on the interface path.
func PullCuts(g ds.Graph, threads int) []int {
	r := rounds{opts: Options{Threads: threads}, csr: flatCSROf(g), n: g.NumNodes()}
	r.pullCuts()
	return r.cuts
}

// BFSAlpha and BFSBeta are FS BFS's direction-rule divisors.
const BFSAlpha, BFSBeta = bfsAlpha, bfsBeta
