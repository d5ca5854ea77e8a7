package crosscheck_test

import (
	"path/filepath"
	"testing"

	"sagabench/internal/crashloop"
	"sagabench/internal/crosscheck"
	_ "sagabench/internal/ds/all"
)

// The repro files under testdata/ are minimized streams that once
// reproduced real incremental-model bugs (see internal/core's regression
// tests for the fixes). They document the bugs in replayable form and
// guard against reintroduction: each must parse and replay clean.
func TestCheckedInReprosReplayClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in repros found")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			r, err := crosscheck.ReadReproFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if rep := crashloop.ReplayRepro(r, nil); !rep.OK() {
				t.Fatalf("repro still fails:\n%s", rep.Failures[0])
			}
		})
	}
}
