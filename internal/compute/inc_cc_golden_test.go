package compute_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// incCCGolden holds the FNV-64a of every post-batch INC CC value vector of
// TestFSGoldenBitIdentity's stream, whose deletes make trimming run,
// recorded before roundCC stopped at label 0. The "shifted" rows replay the
// same stream with every vertex ID moved up by one: vertex 0 never gets an
// edge there, so it is the only vertex labelled 0 and the cut never fires.
// CC's fixpoint is unique, so one hash per stream and direction serves both
// stores, both paths and both thread counts; the plain rows equal
// fsGolden's cc rows, the same fixpoint reached by the FS kernel.
var incCCGolden = map[string]uint64{
	"plain/directed":     0x49a932f290271ed4,
	"plain/undirected":   0xae4ec8b7d40f18f7,
	"shifted/directed":   0x95e4b9f88afa09e7,
	"shifted/undirected": 0x163088b62e66b28c,
}

// incCCCountsGolden is the FNV-64a of (Iterations, Processed,
// EdgesTraversed, Triggered) after every batch of the shifted stream at one
// thread, recorded at the same commit. Where the cut cannot fire, stopping
// at label 0 must not change the work. Both stores hand the round the same
// runs in the same order, so both stores and both paths share a row.
var incCCCountsGolden = map[string]uint64{
	"directed":   0x3271b2976c95dc05,
	"undirected": 0x32e0c23b0cf06fd7,
}

// TestIncCCGoldenBitIdentity replays the crosscheck stream through INC CC
// with deletions trimmed, on a store that lends its runs (AS) and on one
// that copies them (Stinger), on the compute view and on the interface, at
// one and at four threads.
func TestIncCCGoldenBitIdentity(t *testing.T) {
	for _, directed := range []bool{true, false} {
		dir := "undirected"
		if directed {
			dir = "directed"
		}
		plain := crosscheck.NewStream(crosscheck.StreamConfig{
			Seed: 19, Batches: 10, BatchSize: 1500, NumNodes: 1500, Directed: directed, Deletes: true})
		streams := map[string]crosscheck.Stream{"plain": plain, "shifted": shiftStream(plain)}
		for _, name := range []string{"plain", "shifted"} {
			for _, store := range []string{"adjshared", "stinger"} {
				for _, useView := range []bool{false, true} {
					for _, threads := range []int{1, 4} {
						path := "interface"
						if useView {
							path = "view"
						}
						t.Run(fmt.Sprintf("%s/%s/%s/%s/threads=%d", name, dir, store, path, threads), func(t *testing.T) {
							vals, counts := incCCStreamHash(t, store, directed, useView, threads, streams[name])
							if want := incCCGolden[name+"/"+dir]; vals != want {
								t.Errorf("values hash %#x, recorded %#x", vals, want)
							}
							if name == "shifted" && threads == 1 {
								if want := incCCCountsGolden[dir]; counts != want {
									t.Errorf("counts hash %#x, recorded %#x", counts, want)
								}
							}
						})
					}
				}
			}
		}
	}
}

// shiftStream returns a copy of s with every vertex ID raised by one.
func shiftStream(s crosscheck.Stream) crosscheck.Stream {
	shift := func(b graph.Batch) graph.Batch {
		out := make(graph.Batch, len(b))
		for i, e := range b {
			e.Src, e.Dst = e.Src+1, e.Dst+1
			out[i] = e
		}
		return out
	}
	out := make(crosscheck.Stream, len(s))
	for i, st := range s {
		out[i] = crosscheck.Step{Adds: shift(st.Adds), Dels: shift(st.Dels)}
	}
	return out
}

func incCCStreamHash(t *testing.T, store string, directed, useView bool, threads int, stream crosscheck.Stream) (vals, counts uint64) {
	t.Helper()
	g := ds.MustNew(store, ds.Config{Directed: directed, Threads: 1})
	var cg ds.Graph = g
	var view *ds.ComputeView
	if useView {
		var ok bool
		if view, ok = ds.NewComputeView(g, 1); !ok {
			t.Fatalf("%s has no compute view", store)
		}
		cg = view
	}
	e := compute.MustNewEngine("cc", compute.INC, compute.Options{Threads: threads})
	hv, hc := fnv.New64a(), fnv.New64a()
	var word [8]byte
	put := func(h hash.Hash64, x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	deletes := 0
	for _, st := range stream {
		g.Update(st.Adds)
		if err := g.(ds.Deleter).Delete(st.Dels); err != nil {
			t.Fatal(err)
		}
		deletes += len(st.Dels)
		if view != nil {
			view.Refresh(st.Adds, st.Dels)
		}
		if len(st.Dels) > 0 {
			e.(compute.DeletionAware).NotifyDeletions(cg, st.Dels)
		}
		e.PerformAlg(cg, affectedOf(append(append(graph.Batch{}, st.Adds...), st.Dels...)))
		for _, f := range e.Values() {
			put(hv, math.Float64bits(f))
		}
		s := e.Stats()
		put(hc, uint64(s.Iterations))
		put(hc, s.Processed)
		put(hc, s.EdgesTraversed)
		put(hc, s.Triggered)
	}
	if deletes == 0 {
		t.Fatal("stream has no deletes")
	}
	return hv.Sum64(), hc.Sum64()
}
