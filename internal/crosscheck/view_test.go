package crosscheck_test

import (
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/crashloop"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
)

// TestComputeViewDifferential replays mixed streams with every pipeline's
// flat compute-view mirror on: the mirror's topology is diffed against
// the sequential oracle after every step, and every (algorithm, model)
// engine runs on the mirror with its values checked against the
// sequential reference — the flat kernels under the same multithreaded
// differential scrutiny as the interface path.
func TestComputeViewDifferential(t *testing.T) {
	for _, directed := range []bool{true, false} {
		rep := crashloop.Sweep(crashloop.SweepConfig{
			Stream:      crosscheck.StreamConfig{Seed: 77, Batches: 12, BatchSize: 200, NumNodes: 72, Directed: directed, Deletes: true},
			Threads:     4,
			ComputeView: true,
		})
		for _, f := range rep.Failures {
			t.Errorf("directed=%v: %s", directed, f)
		}
		if rep.TopologyChecks == 0 || rep.ValueChecks == 0 {
			t.Fatalf("directed=%v: no checks ran", directed)
		}
	}
}

// TestOutOnlyMirrorsSwept checks that the sweep runs the configurations
// that mirror one direction only: on a directed mixed stream, FS SSSP and
// SSWP never read in-adjacency, so their pipelines build out-only mirrors
// (FlatCSR().HasIn() false), and each such mirror is still diffed against
// the oracle in the direction it holds, every step.
func TestOutOnlyMirrorsSwept(t *testing.T) {
	const batches = 10
	var outOnlyAlgs []string
	for _, alg := range compute.AlgNames() {
		if !compute.NeedsInAdjacency(alg, compute.FS) {
			outOnlyAlgs = append(outOnlyAlgs, alg)
		}
	}
	if len(outOnlyAlgs) != 2 || outOnlyAlgs[0] != "sssp" || outOnlyAlgs[1] != "sswp" {
		t.Fatalf("FS algorithms without in-adjacency reads: %v, want [sssp sswp]", outOnlyAlgs)
	}
	mirrored := 0
	for _, name := range ds.Names() {
		if _, ok := ds.NewComputeView(ds.MustNew(name, ds.Config{Directed: true}), 1); ok {
			mirrored++
		}
	}
	if mirrored == 0 {
		t.Fatal("no structure supports a compute view")
	}

	rep := crashloop.Sweep(crashloop.SweepConfig{
		Stream:      crosscheck.StreamConfig{Seed: 78, Batches: batches, BatchSize: 200, NumNodes: 72, Directed: true, Deletes: true},
		Threads:     4,
		Models:      []compute.Model{compute.FS},
		ComputeView: true,
	})
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
	if want := batches * mirrored * len(outOnlyAlgs); rep.OutOnlyChecks != want {
		t.Fatalf("%d out-only mirror diffs, want %d (FS sssp/sswp on %d mirrored structures x %d steps)",
			rep.OutOnlyChecks, want, mirrored, batches)
	}
}
