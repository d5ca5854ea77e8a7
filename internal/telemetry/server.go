package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// expvarOnce guards the process-global expvar namespace: expvar.Publish
// panics on duplicate names, and tests may build several servers.
var expvarOnce sync.Once

// TraceSource serves an on-demand dump of recent batch traces — the
// flight-recorder ring rendered as Chrome trace-event JSON (Perfetto
// loads it directly). internal/trace.Tracer implements it; the telemetry
// package stays one layer below and only knows the interface. Enabled
// reports whether the source records anything: a run without tracing
// passes its nil *trace.Tracer, a non-nil interface that is not a source.
type TraceSource interface {
	Enabled() bool
	WriteTrace(w io.Writer) error
}

// NewMux builds the observability mux:
//
//	/metrics       Prometheus text exposition of reg
//	/debug/vars    expvar JSON (reg published under "saga")
//	/debug/pprof/  live CPU/heap/goroutine profiling (net/http/pprof)
//	/trace         flight-recorder dump as Perfetto-loadable JSON (when a
//	               TraceSource is attached)
//	/              endpoint index
//
// The optional trailing TraceSource attaches the /trace endpoint (only
// the first enabled source is used).
func NewMux(reg *Registry, trace ...TraceSource) *http.ServeMux {
	expvarOnce.Do(func() {
		expvar.Publish("saga", reg.ExpvarFunc())
	})
	var ts TraceSource
	for _, t := range trace {
		if t != nil && t.Enabled() {
			ts = t
			break
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		if ts == nil {
			http.Error(w, "tracing is not enabled for this run (start with a tracer attached)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="saga-trace.json"`)
		if err := ts.WriteTrace(w); err != nil {
			// Headers are gone; best we can do is abort the body.
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "saga telemetry\n/metrics\n/debug/vars\n/debug/pprof/\n/trace\n")
	})
	return mux
}

// Server is a started observability endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Addr reports the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener; in-flight requests are abandoned.
func (s *Server) Close() error { return s.srv.Close() }

// ListenAndServe binds addr (e.g. ":8090") and serves the observability
// mux in a background goroutine, so a streaming run can be scraped and
// profiled while it executes. The returned server reports the bound
// address and must be Closed by the caller. The optional trailing
// TraceSource attaches the /trace endpoint.
func ListenAndServe(addr string, reg *Registry, trace ...TraceSource) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{srv: &http.Server{Handler: NewMux(reg, trace...)}, ln: ln}
	go s.srv.Serve(ln)
	return s, nil
}
