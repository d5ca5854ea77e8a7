package crosscheck_test

import (
	"os"
	"strings"
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/crashloop"
	"sagabench/internal/crosscheck"
	_ "sagabench/internal/ds/all"
)

// These tests drive the read-during-update differential
// (crashloop.ReadDuring): readers pin a real core.Pipeline's epochs while
// it ingests, and every observation is re-answered from ground truth.

// TestReadDuringClean runs the differential on a healthy pipeline across
// both stream flavors: every mid-stream observation must be re-answerable
// from ground truth. The pr-inc row rewrites the whole value vector every
// batch, so the spare/latest vector rotation under ReclaimSpare runs
// under ground truth.
func TestReadDuringClean(t *testing.T) {
	for _, tc := range []struct {
		name    string
		deletes bool
		alg     string
		model   compute.Model
	}{
		{"view/adds-only", false, "", ""},
		{"view/deletes", true, "", ""},
		{"view/pr-inc", true, "pr", compute.INC},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := crashloop.ReadDuring(crashloop.ReadDuringConfig{
				Stream: crosscheck.StreamConfig{
					Seed:      31 + int64(len(tc.name)),
					Batches:   10,
					BatchSize: 200,
					NumNodes:  64,
					Directed:  true,
					Deletes:   tc.deletes,
				},
				DS:              "adjshared",
				Alg:             tc.alg,
				Model:           tc.model,
				Readers:         4,
				MaxObsPerReader: 64,
				Threads:         2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				for _, m := range rep.Mismatches {
					t.Errorf("mismatch: %s (deterministic=%v)", m, m.Deterministic)
				}
				t.Fatalf("read-during-update differential failed (panic: %q)", rep.ReaderPanic)
			}
			if rep.Batches != 10 {
				t.Fatalf("report covers %d batches, want 10", rep.Batches)
			}
			if rep.Observations == 0 {
				t.Fatal("readers recorded no observations — the differential was vacuous")
			}
			if rep.Checked == 0 || rep.Checked > rep.Observations {
				t.Fatalf("checked %d of %d observations", rep.Checked, rep.Observations)
			}
		})
	}
}

// TestReadDuringDetectsFault plants a degree cap in what the pipeline
// ingests and demands the differential catch it, classify it as
// deterministic, and write minimized reproducers — within the per-run
// caps of 16 classified mismatches and 3 reproducers.
func TestReadDuringDetectsFault(t *testing.T) {
	const maxMismatches, maxRepros = 16, 3
	outDir := t.TempDir()
	cfg := crashloop.ReadDuringConfig{
		Stream: crosscheck.StreamConfig{
			Seed:      7,
			Batches:   8,
			BatchSize: 150,
			NumNodes:  48,
			Directed:  true,
		},
		DS:              "adjshared",
		Readers:         4,
		MaxObsPerReader: 64,
		Threads:         2,
		Fault:           &crosscheck.FaultSpec{Fault: crosscheck.FaultDegreeCap, Cap: 4},
		OutDir:          outDir,
	}
	rep, err := crashloop.ReadDuring(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("differential passed a pipeline that drops edges")
	}
	if len(rep.Mismatches) > maxMismatches {
		t.Fatalf("%d mismatches exceed the per-run cap of %d", len(rep.Mismatches), maxMismatches)
	}
	seen := map[[2]int]bool{}
	prev := crashloop.ReadMismatch{Batch: -1}
	repros := 0
	for i, m := range rep.Mismatches {
		key := [2]int{m.Batch, int(m.Vertex)}
		if seen[key] {
			t.Fatalf("duplicate mismatch for batch %d vertex %d", m.Batch, m.Vertex)
		}
		seen[key] = true
		if m.Batch < prev.Batch || (m.Batch == prev.Batch && m.Vertex < prev.Vertex) {
			t.Fatalf("mismatches not sorted: %v after %v", m, prev)
		}
		prev = m
		if !m.Deterministic {
			t.Errorf("structural fault classified as nondeterministic: %s", m)
		}
		if m.ReproFile == "" {
			if i < maxRepros {
				t.Errorf("no reproducer written for mismatch %d: %s", i, m)
			}
			continue
		}
		repros++
		f, err := os.Open(m.ReproFile)
		if err != nil {
			t.Fatalf("reading reproducer: %v", err)
		}
		r, err := crosscheck.ParseRepro(f)
		f.Close()
		if err != nil {
			t.Fatalf("reproducer %s does not parse: %v", m.ReproFile, err)
		}
		if !strings.Contains(r.Note, "read-during-update") {
			t.Fatalf("reproducer note %q lacks provenance", r.Note)
		}
		if len(r.Stream) == 0 || len(r.Stream) > 8 {
			t.Fatalf("minimized stream has %d batches (original 8)", len(r.Stream))
		}
	}
	if repros == 0 {
		t.Fatal("no reproducer file written at all")
	}
}

// TestReadDuringConfigErrors covers construction failures.
func TestReadDuringConfigErrors(t *testing.T) {
	if _, err := crashloop.ReadDuring(crashloop.ReadDuringConfig{DS: "no-such-structure"}); err == nil {
		t.Fatal("unknown structure accepted")
	}
	if _, err := crashloop.ReadDuring(crashloop.ReadDuringConfig{DS: "adjshared", Alg: "no-such-alg"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
