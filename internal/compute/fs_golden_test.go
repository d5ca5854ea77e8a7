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
)

// fsGolden holds the FNV-64a of every post-batch value vector of the
// stream below for the five non-PageRank algorithms under the FS model,
// recorded at the commit BEFORE the FS kernels moved onto the bitmap
// frontier and the shared round runner (the pr_golden_test.go method).
// BFS levels do not depend on visiting order, CC/MC/SSWP have unique
// fixpoints and SSSP runs the same relaxations in the same order, so one
// hash per algorithm and direction serves the view and the interface path
// at one and at four threads.
var fsGolden = map[string]uint64{
	"bfs/directed":    0x7fd2739a23bbaa17,
	"bfs/undirected":  0xaba8da7a8ae98eab,
	"cc/directed":     0x49a932f290271ed4,
	"cc/undirected":   0xae4ec8b7d40f18f7,
	"mc/directed":     0x88975afe83c895d4,
	"mc/undirected":   0x918397e4ceaf1923,
	"sssp/directed":   0xc5ff33df07cd3a28,
	"sssp/undirected": 0xfd0bfd377b173510,
	"sswp/directed":   0xc1ca55b0d0202f38,
	"sswp/undirected": 0xaeab7651eefebe16,
}

// fsBFSStatsGolden is the FNV-64a of (Iterations, Processed,
// EdgesTraversed) after every batch of the same stream for FS BFS at one
// thread, recorded at the same commit: BFS level sets — and with them the
// direction choices and every counter — are independent of the order a
// level is walked in.
var fsBFSStatsGolden = map[string]uint64{
	"directed":   0x6bf1a6625f3a1bfe,
	"undirected": 0x89f974f5ac56786f,
}

// TestFSGoldenBitIdentity replays one crosscheck stream — deletes, weight
// overwrites, hubs, duplicates, empty batches — through every FS kernel
// that keeps a vertex set, on the compute view and on the structure's
// interface, at one and at four threads.
func TestFSGoldenBitIdentity(t *testing.T) {
	for _, directed := range []bool{true, false} {
		dir := "undirected"
		if directed {
			dir = "directed"
		}
		stream := crosscheck.NewStream(crosscheck.StreamConfig{
			Seed: 19, Batches: 10, BatchSize: 1500, NumNodes: 1500, Directed: directed, Deletes: true})
		for _, alg := range []string{"bfs", "cc", "mc", "sssp", "sswp"} {
			for _, useView := range []bool{false, true} {
				for _, threads := range []int{1, 4} {
					path := "interface"
					if useView {
						path = "view"
					}
					key := alg + "/" + dir
					t.Run(fmt.Sprintf("%s/%s/threads=%d", key, path, threads), func(t *testing.T) {
						vals, stats := fsStreamHash(t, alg, directed, useView, threads, stream)
						if want := fsGolden[key]; vals != want {
							t.Errorf("values hash %#x, recorded %#x", vals, want)
						}
						if alg == "bfs" && threads == 1 {
							if want := fsBFSStatsGolden[dir]; stats != want {
								t.Errorf("stats hash %#x, recorded %#x", stats, want)
							}
						}
					})
				}
			}
		}
	}
}

func fsStreamHash(t *testing.T, alg string, directed, useView bool, threads int, stream crosscheck.Stream) (vals, stats uint64) {
	t.Helper()
	g := ds.MustNew("hybrid", ds.Config{Directed: directed, Threads: 1})
	var cg ds.Graph = g
	var view *ds.ComputeView
	if useView {
		var ok bool
		if view, ok = ds.NewComputeView(g, 1); !ok {
			t.Fatal("hybrid has no compute view")
		}
		cg = view
	}
	e := compute.MustNewEngine(alg, compute.FS, compute.Options{Threads: threads})
	hv, hs := fnv.New64a(), fnv.New64a()
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
		e.PerformAlg(cg, nil)
		for _, f := range e.Values() {
			put(hv, math.Float64bits(f))
		}
		s := e.Stats()
		put(hs, uint64(s.Iterations))
		put(hs, s.Processed)
		put(hs, s.EdgesTraversed)
	}
	if deletes == 0 {
		t.Fatal("stream has no deletes")
	}
	return hv.Sum64(), hs.Sum64()
}
