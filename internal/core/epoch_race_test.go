package core_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
)

// The concurrency battery: reader fleets query published epochs while the
// writer streams mixed insert/overwrite/delete batches through every
// registered structure. Run under -race (the CI concurrency job does, at
// GOMAXPROCS 2 and 8) this is the proof obligation for the non-blocking
// query protocol — readers verify structural invariants and fingerprint
// stability on every session, so a torn epoch, a scribbled pinned buffer,
// or an unsynchronized publication fails the test even when the race
// detector alone stays quiet.

// batteryStream builds the mixed stream for one structure: deletes are
// included only where the structure supports them.
func batteryStream(name string, seed int64, deletes bool) crosscheck.Stream {
	return crosscheck.NewStream(crosscheck.StreamConfig{
		Seed:      seed,
		Batches:   12,
		BatchSize: 300,
		NumNodes:  64,
		Directed:  true,
		Deletes:   deletes,
	})
}

func supportsDeletes(name string) bool {
	g, err := ds.New(name, ds.Config{Directed: true})
	if err != nil {
		return false
	}
	_, ok := g.(ds.Deleter)
	return ok
}

// TestQueryRaceBattery drives every structure, with ComputeView set and
// left off (serving attaches the view either way), under continuous
// mutation with a verifying reader fleet.
func TestQueryRaceBattery(t *testing.T) {
	for _, name := range ds.Names() {
		for _, view := range []bool{true, false} {
			name, view := name, view
			t.Run(fmt.Sprintf("%s/view=%v", name, view), func(t *testing.T) {
				t.Parallel()
				cfg := core.PipelineConfig{
					DataStructure: name,
					Algorithm:     "cc",
					Model:         compute.INC,
					Directed:      true,
					Threads:       2,
					ComputeView:   view,
					ServeQueries:  true,
				}
				p, err := core.NewPipeline(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()

				ql, err := core.StartQueryLoad(p, core.QueryLoadConfig{
					Readers: 4,
					Seed:    int64(len(name)),
					Verify:  true,
					PerPin:  16,
				})
				if err != nil {
					t.Fatal(err)
				}

				dels := supportsDeletes(name)
				var midEpoch *core.QueryHandle
				var midFP uint64
				stream := batteryStream(name, 0xBA77E47, dels)
				for bi, st := range stream {
					mb := core.MixedBatch{Adds: st.Adds}
					if dels {
						mb.Dels = st.Dels
					}
					if _, err := p.ProcessMixed(mb); err != nil {
						ql.Stop()
						t.Fatalf("batch %d: %v", bi, err)
					}
					if bi == len(stream)/2 {
						// Pin one epoch from the main goroutine too and hold it
						// across the rest of the stream: survival of a
						// long-held pin under maximal writer churn.
						h, err := p.AcquireQuery()
						if err != nil {
							ql.Stop()
							t.Fatalf("batch %d: %v", bi, err)
						}
						midEpoch, midFP = h, h.Snapshot().Fingerprint()
					}
				}
				// Hold the pipeline open until the fleet has served at
				// least one query: on a single-core runner the writer can
				// retire the entire stream before a reader is scheduled.
				for deadline := time.Now().Add(10 * time.Second); ql.Served() == 0; {
					if time.Now().After(deadline) {
						break
					}
					runtime.Gosched()
				}
				stats := ql.Stop()
				if stats.Violations != 0 {
					t.Fatalf("%d consistency violations, first: %s", stats.Violations, stats.FirstViolation)
				}
				if stats.Sessions == 0 || stats.Queries == 0 {
					t.Fatalf("reader fleet served nothing: %+v", stats)
				}
				if got := midEpoch.Snapshot().Fingerprint(); got != midFP {
					t.Fatalf("long-held epoch %d scribbled: %#x -> %#x", midEpoch.Epoch(), midFP, got)
				}
				if err := midEpoch.ReleaseChecked(); err != nil {
					t.Fatal(err)
				}
				if pins := p.Epochs().Stats().Pins; pins != 0 {
					t.Fatalf("%d pins outstanding after Stop", pins)
				}
			})
		}
	}
}

// TestQueryRaceAlgorithms repeats the battery core on the remaining
// algorithms over one structure, so property-vector publication is
// exercised for every value shape (depths, labels, scores, distances).
func TestQueryRaceAlgorithms(t *testing.T) {
	for _, alg := range []string{"bfs", "pr", "sssp"} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			cfg := core.PipelineConfig{
				DataStructure: "adjshared",
				Algorithm:     alg,
				Model:         compute.INC,
				Directed:      true,
				Threads:       2,
				ComputeView:   true,
				ServeQueries:  true,
			}
			p, err := core.NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			ql, err := core.StartQueryLoad(p, core.QueryLoadConfig{Readers: 3, Seed: 11, Verify: true, PerPin: 16})
			if err != nil {
				t.Fatal(err)
			}
			for bi, st := range batteryStream(alg, int64(len(alg))*31, false) {
				if _, err := p.ProcessMixed(core.MixedBatch{Adds: st.Adds}); err != nil {
					ql.Stop()
					t.Fatalf("batch %d: %v", bi, err)
				}
			}
			stats := ql.Stop()
			if stats.Violations != 0 {
				t.Fatalf("%d violations, first: %s", stats.Violations, stats.FirstViolation)
			}
		})
	}
}

// TestReaderInterferenceSmoke is the acceptance smoke: readers serve a
// nonzero query rate while the writer applies batches, and the stream
// completes with zero violations. (The quantitative interference numbers
// — update throughput at 1/4/16 readers — come from the sagabench
// `interference` experiment; a unit test asserting a <10% slowdown would
// be noise-bound on shared CI hardware.)
func TestReaderInterferenceSmoke(t *testing.T) {
	cfg := core.PipelineConfig{
		DataStructure: "adjshared",
		Algorithm:     "cc",
		Model:         compute.INC,
		Directed:      true,
		Threads:       2,
		ComputeView:   true,
		ServeQueries:  true,
	}
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ql, err := core.StartQueryLoad(p, core.QueryLoadConfig{Readers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range batteryStream("smoke", 99, false) {
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: st.Adds}); err != nil {
			ql.Stop()
			t.Fatal(err)
		}
	}
	// A fast writer can finish the whole stream before the readers are
	// ever scheduled (single-core CI). The epochs stay pinned-able until
	// Stop, so hold the pipeline open until the fleet has served
	// something — the non-blocking guarantee is that readers make
	// progress, not that they win every timeslice.
	for deadline := time.Now().Add(10 * time.Second); ql.Served() == 0; {
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
	}
	stats := ql.Stop()
	if stats.Queries == 0 || stats.QPS() <= 0 {
		t.Fatalf("no queries served during the stream: %+v", stats)
	}
	if stats.Violations != 0 {
		t.Fatalf("%d violations, first: %s", stats.Violations, stats.FirstViolation)
	}
	if pub := p.Epochs().Stats().Published; pub != 12 {
		t.Fatalf("published %d epochs, want 12", pub)
	}
}
