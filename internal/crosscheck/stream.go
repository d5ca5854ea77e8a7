// Package crosscheck is the pure-data half of the differential fuzz
// harness: deterministic, seed-driven randomized edge streams
// (NewStream), the planted defects the differentials' self-tests apply to
// them (FaultSpec), the stream shrinker (Minimize, drop-batch then
// drop-edge), and the line-oriented repro codec (Repro) shared by
// `sagafuzz -replay`, the durability layer's poison files and the
// checked-in regression repros. The differentials that replay these
// streams through a real core.Pipeline and judge it against the
// sequential graph.Oracle — the per-step sweep, the read-during-update
// differential and the kill/recover soak — live in internal/crashloop:
// this package cannot import core, whose durability layer imports the
// repro codec here.
//
// saga:deterministic — the whole point of the harness is bit-identical
// replay from a seed, so wall-clock reads and unseeded or map-ordered
// iteration are forbidden (enforced by sagavet; see internal/analysis).
package crosscheck

import (
	"math/rand"

	"sagabench/internal/graph"
)

// Step is one ingest unit of a crosscheck stream: additions are applied
// first (Update), then deletions (Delete), matching core.MixedBatch.
type Step struct {
	Adds graph.Batch
	Dels graph.Batch
}

// Stream is an ordered sequence of steps replayed from empty state.
type Stream []Step

// NumEdges counts the stream's total add and delete records.
func (s Stream) NumEdges() (adds, dels int) {
	for _, st := range s {
		adds += len(st.Adds)
		dels += len(st.Dels)
	}
	return adds, dels
}

// clone deep-copies the stream so shrinking can mutate candidates freely.
func (s Stream) clone() Stream {
	out := make(Stream, len(s))
	for i, st := range s {
		out[i] = Step{
			Adds: append(graph.Batch(nil), st.Adds...),
			Dels: append(graph.Batch(nil), st.Dels...),
		}
	}
	return out
}

// StreamConfig parameterizes deterministic stream generation. The zero
// value is not useful; fill in Seed/Batches or use the defaults applied
// by withDefaults.
type StreamConfig struct {
	// Seed drives every random choice; identical configs with identical
	// seeds generate identical streams.
	Seed int64
	// Batches is the number of steps (default 20).
	Batches int
	// BatchSize is the nominal edge count per step (default 400).
	BatchSize int
	// NumNodes is the vertex-ID space (default 96; small on purpose so
	// duplicate edges, re-inserts, and hub contention are frequent).
	NumNodes int
	// Directed selects the stream's directedness.
	Directed bool
	// Deletes enables delete records (default: disabled unless set).
	Deletes bool
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Batches <= 0 {
		c.Batches = 20
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 400
	}
	if c.NumNodes <= 0 {
		c.NumNodes = 96
	}
	return c
}

// Batch flavors, rotated randomly so each stream mixes the adversarial
// shapes Section V-B of the paper identifies (per-batch degree skew) with
// the shapes that historically break concurrent structures (duplicates,
// re-inserts, empty batches, hot spots).
const (
	flavorUniform  = iota // uniform random endpoints
	flavorHub             // one vertex on most edges (hot spot)
	flavorDupHeavy        // tiny endpoint universe: many same-batch duplicates
	flavorReinsert        // resample live edges with fresh weights
	flavorEmpty           // empty batch (must be a no-op)
	flavorSkewed          // zipf-ish skewed endpoints
	numFlavors
)

// pairWeight derives an edge weight deterministically from the endpoints
// and a per-step salt. Within one step every duplicate of a pair gets the
// same weight — concurrent ingestion applies same-batch duplicates in
// nondeterministic order, so they must agree — while a later step with a
// different salt re-inserts the pair with a fresh weight. The weight is
// symmetric in (src, dst) so undirected mirror ingestion also agrees.
func pairWeight(src, dst graph.NodeID, salt uint32) graph.Weight {
	a, b := uint32(src), uint32(dst)
	if a > b {
		a, b = b, a
	}
	h := (a*2654435761 ^ b*40503 ^ salt*97) % 63
	return graph.Weight(h + 1)
}

// NewStream generates the stream for cfg. Generation is sequential and
// deterministic: it tracks the live edge set (current weights included)
// so deletions carry the weight the edge actually has at delete time —
// KickStarter-style trimming judges value support by the deleted edge's
// weight, so a stale weight would under-invalidate and report a false
// positive against the reference.
func NewStream(cfg StreamConfig) Stream {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	type pair struct{ src, dst graph.NodeID }
	cur := map[pair]graph.Weight{} // live edges with current weights
	var livePairs []pair           // insertion-ordered keys of cur (may repeat)

	stream := make(Stream, 0, cfg.Batches)
	for b := 0; b < cfg.Batches; b++ {
		salt := uint32(b) + uint32(cfg.Seed&0xffff)*31
		flavor := rng.Intn(numFlavors)
		step := Step{}

		drawVertex := func() graph.NodeID {
			return graph.NodeID(rng.Intn(cfg.NumNodes))
		}
		drawSkewed := func() graph.NodeID {
			// Square a uniform draw: low IDs dominate.
			u := rng.Float64()
			return graph.NodeID(int(u * u * float64(cfg.NumNodes)))
		}
		addEdge := func(src, dst graph.NodeID, w graph.Weight) {
			step.Adds = append(step.Adds, graph.Edge{Src: src, Dst: dst, Weight: w})
			p := pair{src, dst}
			if _, ok := cur[p]; !ok {
				livePairs = append(livePairs, p)
			}
			cur[p] = w
			if !cfg.Directed {
				rp := pair{dst, src}
				if _, ok := cur[rp]; !ok {
					livePairs = append(livePairs, rp)
				}
				cur[rp] = w
			}
		}

		switch flavor {
		case flavorEmpty:
			// Roughly half the empty steps carry a nil batch, the other
			// half a zero-length one.
			if rng.Intn(2) == 0 {
				step.Adds = graph.Batch{}
			}
		case flavorHub:
			hub := drawVertex()
			for i := 0; i < cfg.BatchSize; i++ {
				src, dst := hub, drawVertex()
				if rng.Intn(2) == 0 {
					src, dst = dst, hub
				}
				if src == dst {
					dst = graph.NodeID((int(dst) + 1) % cfg.NumNodes)
				}
				addEdge(src, dst, pairWeight(src, dst, salt))
			}
		case flavorDupHeavy:
			// Drawing from ~8 vertices makes same-batch duplicates the
			// common case, hammering unique-ingestion under contention.
			lo := rng.Intn(cfg.NumNodes)
			for i := 0; i < cfg.BatchSize; i++ {
				src := graph.NodeID((lo + rng.Intn(8)) % cfg.NumNodes)
				dst := graph.NodeID((lo + rng.Intn(8)) % cfg.NumNodes)
				addEdge(src, dst, pairWeight(src, dst, salt))
			}
		case flavorReinsert:
			if len(livePairs) == 0 {
				break
			}
			for i := 0; i < cfg.BatchSize; i++ {
				p := livePairs[rng.Intn(len(livePairs))]
				// Fresh salt → fresh weight: the overwrite path.
				addEdge(p.src, p.dst, pairWeight(p.src, p.dst, salt))
			}
		case flavorSkewed:
			for i := 0; i < cfg.BatchSize; i++ {
				src, dst := drawSkewed(), drawSkewed()
				addEdge(src, dst, pairWeight(src, dst, salt))
			}
		default: // flavorUniform
			for i := 0; i < cfg.BatchSize; i++ {
				src, dst := drawVertex(), drawVertex()
				addEdge(src, dst, pairWeight(src, dst, salt))
			}
		}

		if cfg.Deletes && rng.Intn(3) > 0 && len(livePairs) > 0 {
			nDel := rng.Intn(cfg.BatchSize/2 + 1)
			for i := 0; i < nDel; i++ {
				if rng.Intn(5) == 0 {
					// Absent or out-of-range edge: must be a no-op.
					step.Dels = append(step.Dels, graph.Edge{
						Src:    graph.NodeID(rng.Intn(2 * cfg.NumNodes)),
						Dst:    graph.NodeID(cfg.NumNodes + rng.Intn(cfg.NumNodes)),
						Weight: 1,
					})
					continue
				}
				p := livePairs[rng.Intn(len(livePairs))]
				w, ok := cur[p]
				if !ok {
					continue // already deleted this stream
				}
				step.Dels = append(step.Dels, graph.Edge{Src: p.src, Dst: p.dst, Weight: w})
				delete(cur, p)
				if !cfg.Directed {
					delete(cur, pair{p.dst, p.src})
				}
			}
		}
		stream = append(stream, step)
	}
	return stream
}
