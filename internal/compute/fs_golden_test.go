package compute_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
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
							checkBFSStats(t, dir, stats)
						}
					})
				}
			}
		}
	}
}

// testdata/fs_bfs_stats/<dir>.golden holds FS BFS's (Iterations,
// Processed, EdgesTraversed) after every batch of the same stream at one
// thread, one batch a line: BFS level sets — and with them the direction
// choices and every counter — are independent of the order a level is
// walked in and of the backing. The texts were first recorded as
// FNV-64a constants at the same commit as fsGolden; unlike the values,
// they change with the direction rule, and a re-record is a text diff.
//
// checkBFSStats compares the counts with that text and prints the first
// lines that differ.
func checkBFSStats(t *testing.T, dir, got string) {
	t.Helper()
	recorded, err := os.ReadFile(filepath.Join("testdata", "fs_bfs_stats", dir+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if d := firstLineDiffs(string(recorded), got, 5); d != "" {
		t.Errorf("per-batch counts differ from testdata/fs_bfs_stats/%s.golden:\n%s", dir, d)
	}
}

// bfsStatsLine is one batch of the stats text.
const bfsStatsLine = "batch %d: iterations=%d processed=%d edges=%d"

// firstLineDiffs lists up to max lines at which want and got differ, as
// "-want"/"+got" pairs under the line number; "" when they are equal.
func firstLineDiffs(want, got string, max int) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i, shown := 0, 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if shown == max {
			b.WriteString("...\n")
			break
		}
		fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		shown++
	}
	return b.String()
}

func fsStreamHash(t *testing.T, alg string, directed, useView bool, threads int, stream crosscheck.Stream) (vals uint64, stats string) {
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
	hv := fnv.New64a()
	var word [8]byte
	var text strings.Builder
	deletes := 0
	for i, st := range stream {
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
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(f))
			hv.Write(word[:])
		}
		s := e.Stats()
		fmt.Fprintf(&text, bfsStatsLine+"\n", i+1, s.Iterations, s.Processed, s.EdgesTraversed)
	}
	if deletes == 0 {
		t.Fatal("stream has no deletes")
	}
	return hv.Sum64(), text.String()
}
