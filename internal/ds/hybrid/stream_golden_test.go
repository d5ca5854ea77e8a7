package hybrid

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sagabench/internal/ds"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// streamGolden is the digest of TestHybridStreamGolden's stream per chunk
// count. Never re-record it to make a change pass: the apply order, tier
// history, storage sizes and counters it pins are what a change to the
// update path must keep.
var streamGolden = map[int]uint64{
	1: 0x668ed196e330c674,
	2: 0xf9a2d3de77033d82,
}

// goldenHubs are the hub stream's sources: even and odd IDs, so both
// chunks of a two-chunk store own some.
var goldenHubs = []graph.NodeID{3, 1000, 4097, 8190, 12001, 16382}

// hubStep is what one batch does to a hub, by the phase of its ten-batch
// cycle. Phase 0 inserts 150 fresh destinations into an empty hub, so one
// source's run of records climbs inline → array → hash and grows its table
// several times inside one batch. Phase 2 overwrites 50 of them with a new
// weight and adds 20. Phase 4 deletes 130 of the 170 (an array and a table
// two classes over their need: shrink), phase 5 deletes 30 more (down to
// 10: hash → array), phase 6 re-adds 60 of the deleted ones (promotion
// again) and phase 8 deletes them all (array → inline).
func hubStep(phase int, hub graph.NodeID, live, gone *[]graph.NodeID, next *graph.NodeID, w graph.Weight, rng *rand.Rand) (adds, dels []graph.Edge) {
	take := func(from *[]graph.NodeID, n int) []graph.NodeID {
		rng.Shuffle(len(*from), func(i, j int) { (*from)[i], (*from)[j] = (*from)[j], (*from)[i] })
		n = min(n, len(*from))
		out := append([]graph.NodeID(nil), (*from)[:n]...)
		*from = (*from)[n:]
		return out
	}
	fresh := func(n int) {
		for i := 0; i < n; i++ {
			*next = (*next*5 + 13) % (1 << 14) // full period: every ID once per 2^14 draws
			if *next == hub {
				continue
			}
			adds = append(adds, graph.Edge{Src: hub, Dst: *next, Weight: w})
			*live = append(*live, *next)
		}
	}
	switch phase {
	case 0:
		fresh(150)
	case 2:
		for _, d := range (*live)[:min(50, len(*live))] {
			adds = append(adds, graph.Edge{Src: hub, Dst: d, Weight: w})
		}
		fresh(20)
	case 4, 5:
		n := 130
		if phase == 5 {
			n = 30
		}
		for _, d := range take(live, n) {
			dels = append(dels, graph.Edge{Src: hub, Dst: d})
			*gone = append(*gone, d)
		}
	case 6:
		for _, d := range take(gone, 60) {
			adds = append(adds, graph.Edge{Src: hub, Dst: d, Weight: w})
			*live = append(*live, d)
		}
	case 8:
		for _, d := range take(live, len(*live)) {
			dels = append(dels, graph.Edge{Src: hub, Dst: d})
		}
		*gone = (*gone)[:0]
	}
	return adds, dels
}

// storeDigest hashes every vertex's run (IDs and weights, in order), its
// tier and layout, and the profile the step handed over, which it returns.
func storeDigest(s *store) (uint64, ds.UpdateProfile) {
	h := fnv.New64a()
	put := func(x uint64) { put64(h, x) }
	for v := 0; v < s.NumNodes(); v++ {
		id := graph.NodeID(v)
		run := s.FlatRun(id)
		put(uint64(len(run)))
		for _, nb := range run {
			put(uint64(nb.ID)<<32 | uint64(math.Float32bits(float32(nb.Weight))))
		}
		a, i := s.LayoutOf(id)
		put(uint64(s.TierOf(id)))
		put(uint64(a)<<32 | uint64(i))
	}
	var p ds.UpdateProfile
	s.TakeProfile(&p)
	for _, x := range []uint64{p.EdgesIngested, p.Inserted, p.ScanSteps, p.LockConflicts,
		p.MetaOps, p.TierPromotions, p.TierDemotions} {
		put(x)
	}
	for _, x := range p.ChunkLoads {
		put(x)
	}
	put(uint64(s.NumEdges()))
	return h.Sum64(), p
}

// TestHybridStreamGolden pins one store's whole history on a fixed-seed
// stream at 2^14 vertices, at one and two chunks: after every insert and
// every delete batch, the digest of every vertex's run, TierOf, LayoutOf
// and the TakeProfile counters. The stream is a windowed RMAT stream
// (window 8: each batch deletes what the batch eight before it added and
// nothing since re-added), whose repeats overwrite weights and re-add
// expired edges, plus the hub cycle of hubStep. Bucket lengths are not
// multiples of 64, and hub runs are longer than 64 records, so an apply
// that walks a bucket in fixed-size groups meets partial groups, sources
// whose records cross a group boundary, and promotion, table growth,
// demotion and shrink in the middle of a group. With -v it logs each
// step's digest: run the same test file at an older commit to diff.
func TestHybridStreamGolden(t *testing.T) {
	const (
		nodes   = 1 << 14
		batches = 40
		window  = 8
	)
	for _, chunks := range []int{1, 2} {
		s := newStore(chunks, DefaultHashThreshold, 0)
		s.EnsureNodes(nodes)
		rng := rand.New(rand.NewSource(11))
		live := make([][]graph.NodeID, len(goldenHubs))
		gone := make([][]graph.NodeID, len(goldenHubs))
		next := make([]graph.NodeID, len(goldenHubs))
		for j, h := range goldenHubs {
			next[j] = h + 1
		}
		born := map[graph.Edge]int{}
		var ring [][]graph.Edge
		var promos, demos, shrinks, partial uint64
		sum := fnv.New64a()
		for b := 0; b < batches; b++ {
			w := graph.Weight(b + 1)
			adds := gen.Spec{Kind: gen.KindRMAT, Directed: true, NumNodes: nodes, NumEdges: 3001 + 37*b,
				A: .55, B: .15, C: .15, D: .15}.Generate(int64(b))
			var windowed []graph.Edge
			for i := range adds {
				adds[i].Weight = w
				k := graph.Edge{Src: adds[i].Src, Dst: adds[i].Dst}
				born[k] = b
				windowed = append(windowed, k)
			}
			var dels []graph.Edge
			if len(ring) == window {
				for _, k := range ring[0] {
					if born[k] == b-window {
						dels = append(dels, k)
						delete(born, k)
					}
				}
				ring = ring[1:]
			}
			ring = append(ring, windowed)
			for j, h := range goldenHubs {
				ha, hd := hubStep((b+j)%10, h, &live[j], &gone[j], &next[j], w, rng)
				adds = append(adds, ha...)
				dels = append(dels, hd...)
			}
			rng.Shuffle(len(adds), func(i, j int) { adds[i], adds[j] = adds[j], adds[i] })
			rng.Shuffle(len(dels), func(i, j int) { dels[i], dels[j] = dels[j], dels[i] })
			if len(adds)%64 != 0 {
				partial++
			}

			s.UpdateEdges(adds)
			d, p := storeDigest(s)
			promos += p.TierPromotions
			t.Logf("chunks=%d batch %d insert %d: %016x", chunks, b, len(adds), d)
			put64(sum, d)
			before := make([]int, len(goldenHubs))
			for j, h := range goldenHubs {
				_, before[j] = s.LayoutOf(h)
			}
			s.DeleteEdges(dels)
			for j, h := range goldenHubs {
				if _, n := s.LayoutOf(h); n > 0 && n < before[j] {
					shrinks++
				}
			}
			d, p = storeDigest(s)
			demos += p.TierDemotions
			t.Logf("chunks=%d batch %d delete %d: %016x", chunks, b, len(dels), d)
			put64(sum, d)
		}
		t.Logf("chunks=%d: %d promotions, %d demotions, %d hub table shrinks, %d partial groups", chunks, promos, demos, shrinks, partial)
		if promos == 0 || demos == 0 || shrinks == 0 || partial == 0 {
			t.Fatalf("chunks=%d: the stream made %d promotions, %d demotions, %d table shrinks and %d partial groups; it must make each",
				chunks, promos, demos, shrinks, partial)
		}
		if got, want := sum.Sum64(), streamGolden[chunks]; got != want {
			t.Errorf("chunks=%d: stream digest %016x, want %016x (run with -v and diff the per-step digests against an older commit)", chunks, got, want)
		}
	}
}

// put64 writes x to h, little-endian.
func put64(h hash.Hash64, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}
