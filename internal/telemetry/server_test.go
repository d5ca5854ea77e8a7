package telemetry_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"sagabench/internal/telemetry"
	"sagabench/internal/trace"
)

// TestServerEndpoints boots the observability endpoint on an ephemeral
// port and checks /metrics, /debug/vars, and /debug/pprof/ respond with
// the expected content while the process runs.
func TestServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("saga_batches_total", "").Add(5)
	srv, err := telemetry.ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "saga_batches_total 5") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: code=%d body[:80]=%q", code, body[:min(80, len(body))])
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
	if code, _ := get("/debug/pprof/heap?debug=1"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/heap: code=%d", code)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope: code=%d, want 404", code)
	}
	// No TraceSource attached: /trace explains itself with a 404.
	if code, _ := get("/trace"); code != http.StatusNotFound {
		t.Fatalf("/trace without source: code=%d, want 404", code)
	}
}

// fakeTraceSource serves a canned trace document.
type fakeTraceSource struct{ doc string }

func (fakeTraceSource) Enabled() bool { return true }

func (f fakeTraceSource) WriteTrace(w io.Writer) error {
	_, err := io.WriteString(w, f.doc)
	return err
}

// TestServerTraceEndpoint checks /trace streams the attached source with
// download headers.
func TestServerTraceEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := telemetry.ListenAndServe("127.0.0.1:0", reg, fakeTraceSource{doc: `{"traceEvents":[]}`})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != `{"traceEvents":[]}` {
		t.Fatalf("/trace: code=%d body=%q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/trace content-type %q", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "saga-trace.json") {
		t.Fatalf("/trace content-disposition %q", cd)
	}
}

// TestServerTraceEndpointNilTracer: a run without tracing hands its nil
// *trace.Tracer to the server, a non-nil TraceSource holding a nil
// pointer. /trace must answer it like no source at all — the 404
// explanation — not with a download whose body is an error.
func TestServerTraceEndpointNilTracer(t *testing.T) {
	var tr *trace.Tracer
	srv, err := telemetry.ListenAndServe("127.0.0.1:0", telemetry.NewRegistry(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "tracing is not enabled") {
		t.Fatalf("/trace with a nil tracer: code=%d body=%q", resp.StatusCode, body)
	}
	if cd := resp.Header.Get("Content-Disposition"); cd != "" {
		t.Fatalf("/trace with a nil tracer offers a download: %q", cd)
	}
}
