package crosscheck

import "sagabench/internal/graph"

// Stream minimization: given a failing stream and a predicate that
// replays a candidate and reports whether it still fails, shrink in two
// phases — drop whole batches first, then drop edges within the
// surviving batches (chunk-halving down to single edges, ddmin-style).
// The predicate must be deterministic; crashloop.Replay is.

// shrinkBudget caps predicate invocations so pathological cases stay
// bounded; minimization is best-effort, not optimal.
const shrinkBudget = 6000

type shrinker struct {
	fails func(Stream) bool
	calls int
}

// Minimize returns a (usually much) smaller stream that still satisfies
// fails. The input stream itself must fail; Minimize panics otherwise so
// a broken predicate is caught immediately rather than silently returning
// an unshrunk stream.
func Minimize(stream Stream, fails func(Stream) bool) Stream {
	if !fails(stream) {
		panic("crosscheck: Minimize called with a passing stream")
	}
	sh := &shrinker{fails: fails}
	cur := stream.clone()
	cur = sh.dropBatches(cur)
	cur = sh.dropEdges(cur)
	// Dropping edges can make further whole batches droppable (e.g. a
	// now-empty step); run one more batch pass with what's left.
	cur = sh.dropBatches(cur)
	return cur
}

func (sh *shrinker) test(s Stream) bool {
	if sh.calls >= shrinkBudget {
		return false
	}
	sh.calls++
	return sh.fails(s)
}

// dropBatches repeatedly removes chunks of consecutive steps while the
// stream still fails, halving the chunk size down to single steps.
func (sh *shrinker) dropBatches(cur Stream) Stream {
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			cand := make(Stream, 0, len(cur)-chunk)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+chunk:]...)
			if sh.test(cand) {
				cur = cand // keep position: the next chunk slid into place
			} else {
				start += chunk
			}
		}
	}
	return cur
}

// dropEdges shrinks each surviving step's add and delete batches.
func (sh *shrinker) dropEdges(cur Stream) Stream {
	for i := range cur {
		cur[i].Adds = sh.shrinkBatch(cur, i, false)
		cur[i].Dels = sh.shrinkBatch(cur, i, true)
	}
	return cur
}

// shrinkBatch minimizes one step's adds or dels in place by chunk
// removal, returning the minimized batch.
func (sh *shrinker) shrinkBatch(cur Stream, idx int, dels bool) graph.Batch {
	set := func(b graph.Batch) {
		if dels {
			cur[idx].Dels = b
		} else {
			cur[idx].Adds = b
		}
	}
	edges := cur[idx].Adds
	if dels {
		edges = cur[idx].Dels
	}
	for chunk := (len(edges) + 1) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(edges); {
			cand := make(graph.Batch, 0, len(edges)-chunk)
			cand = append(cand, edges[:start]...)
			cand = append(cand, edges[start+chunk:]...)
			set(cand)
			if sh.test(cur) {
				edges = cand
			} else {
				start += chunk
			}
			set(edges)
		}
	}
	return edges
}
