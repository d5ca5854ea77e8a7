package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the test binary as saga itself when SAGA_HELPER is set, so
// a test can drive the command end to end and read its exit code.
func TestMain(m *testing.M) {
	if os.Getenv("SAGA_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// saga runs the command with args and returns its exit code, stdout and
// stderr.
func saga(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SAGA_HELPER=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

func lines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n"))
}

// TestCompleteDurableStream runs saga twice over one -wal directory. The
// second run has nothing left to stream, and still writes -health-out,
// closes -events and -trace-out, dumps the metrics and exits 0.
func TestCompleteDurableStream(t *testing.T) {
	dir := t.TempDir()
	for run, wantEvents := range []int{10, 0} {
		prefix := filepath.Join(dir, string(rune('a'+run)))
		health, events, trace := prefix+"-health.json", prefix+"-events.jsonl", prefix+"-trace.json"
		code, stdout, stderr := saga(t, "-dataset", "talk", "-profile", "tiny", "-wal", filepath.Join(dir, "wal"),
			"-degrade-policy", "degrade", "-health-out", health, "-events", events, "-trace-out", trace, "-metrics-dump")
		if code != 0 {
			t.Fatalf("run %d: exit %d\n%s", run, code, stderr)
		}
		if data, err := os.ReadFile(health); err != nil || !strings.Contains(string(data), `"state": "healthy"`) {
			t.Fatalf("run %d: health report %q, %v", run, data, err)
		}
		if got := lines(t, events); got != wantEvents {
			t.Errorf("run %d: %d event lines, want %d", run, got, wantEvents)
		}
		if _, err := os.Stat(trace); err != nil {
			t.Errorf("run %d: %v", run, err)
		}
		if !strings.Contains(stdout, "saga_batches_total") {
			t.Errorf("run %d: no metrics dump on stdout", run)
		}
		if complete := strings.Contains(stderr, "stream already complete"); complete != (run == 1) {
			t.Errorf("run %d: stderr says complete=%v:\n%s", run, complete, stderr)
		}
	}
}

// TestInjectedFaultExitsOne: a phase fault on a run without -wal is the
// run's error. saga closes its outputs, prints it and exits 1.
func TestInjectedFaultExitsOne(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	code, _, stderr := saga(t, "-dataset", "talk", "-profile", "tiny", "-fault-schedule", "eio(compute,2)", "-events", events)
	if code != 1 || !strings.Contains(stderr, "saga: fault: injected eio at compute") {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if got := lines(t, events); got != 1 {
		t.Errorf("%d event lines, want the 1 batch before the fault", got)
	}
}
