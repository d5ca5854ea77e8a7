// Command sagabench regenerates the paper's tables and figures.
//
// Examples:
//
//	sagabench -experiment table3           # best combo per alg/dataset
//	sagabench -experiment fig9 -machdiv 64 # architecture utilization
//	sagabench -experiment all -profile tiny -repeats 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sagabench/internal/bench"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/telemetry"
	"sagabench/internal/trace"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", experimentHelp())
		profile    = flag.String("profile", "default", "dataset scale: tiny, default, large")
		threads    = flag.Int("threads", 4, "worker threads")
		view       = flag.Bool("compute-view", false, "run every compute phase on the incrementally rebuilt flat CSR mirror")
		serveQ     = flag.Int("serve-queries", 0, "serve non-blocking queries during every measured run with this many concurrent readers (0 disables); implies -compute-view")
		repeats    = flag.Int("repeats", 1, "stream repetitions (paper uses 3)")
		seed       = flag.Int64("seed", 42, "generator seed")
		machdiv    = flag.Int("machdiv", 128, "simulated-machine capacity divisor for fig9/fig10")
		outdir     = flag.String("outdir", "", "also write the experiment output to <outdir>/<experiment>.txt")
		csvdir     = flag.String("csv", "", "write each experiment's data series as CSV files into this directory")

		listen      = flag.String("listen", "", "serve /metrics (Prometheus + expvar), /debug/pprof, and /trace on this address while experiments run, e.g. :8090")
		events      = flag.String("events", "", "write one JSONL telemetry event per measured batch to this file")
		metricsDump = flag.Bool("metrics-dump", false, "print the final metrics in Prometheus text format after the run")

		traceOut    = flag.String("trace-out", "", "write the flight-recorder ring of the measured runs as Chrome trace-event JSON (Perfetto-loadable) to this file after the experiments")
		traceFlight = flag.Int("trace-flight", 16, "flight-recorder capacity in complete batch traces with -trace-out")
		pprofLabels = flag.Bool("pprof-labels", false, "run pipeline phases under pprof labels so -listen CPU profiles attribute samples to stages")

		faultSpec  = flag.String("fault-schedule", "", "override the faults experiment's fault schedule, e.g. slow(wal-fsync,0.3,2ms);enospc(wal-append,40) (see internal/fault; seeded by -seed)")
		maxQueue   = flag.Int("max-queue", 0, "supervised ingest queue bound for the faults experiment (default 8)")
		degradePol = flag.String("degrade-policy", "", "restrict the faults experiment to the baseline plus this one policy: fail, degrade, read-only")
		healthDir  = flag.String("health-dir", "", "write one JSON health report per faults-experiment run into this directory (CI uploads them as artifacts)")
	)
	flag.Parse()

	var tracer *trace.Tracer
	if *traceOut != "" || *pprofLabels {
		tracer = trace.New(trace.Config{Flight: *traceFlight, PprofLabels: *pprofLabels})
	}

	var rec *telemetry.Recorder
	if *listen != "" || *events != "" || *metricsDump {
		reg := telemetry.NewRegistry()
		var sink *telemetry.EventSink
		if *events != "" {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sagabench:", err)
				os.Exit(1)
			}
			sink = telemetry.NewEventSink(f)
		}
		rec = telemetry.NewRecorder(reg, sink)
		if *listen != "" {
			srv, err := telemetry.ListenAndServe(*listen, reg, tracer)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sagabench:", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "sagabench: telemetry on http://%s (/metrics, /debug/pprof/, /trace)\n", srv.Addr())
		}
	}

	var out io.Writer = os.Stdout
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sagabench:", err)
			os.Exit(1)
		}
		f, err := os.Create(filepath.Join(*outdir, *experiment+".txt"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sagabench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	h := bench.New(bench.Options{
		Profile:       gen.Profile(*profile),
		Threads:       *threads,
		Repeats:       *repeats,
		Seed:          *seed,
		MachineDiv:    *machdiv,
		Out:           out,
		CSVDir:        *csvdir,
		Telemetry:     rec,
		Tracer:        tracer,
		ComputeView:   *view,
		QueryReaders:  *serveQ,
		FaultSchedule: *faultSpec,
		MaxQueue:      *maxQueue,
		DegradePolicy: *degradePol,
		HealthDir:     *healthDir,
	})
	start := time.Now()
	if err := h.RunExperiment(*experiment); err != nil {
		fmt.Fprintln(os.Stderr, "sagabench:", err)
		os.Exit(1)
	}
	fmt.Printf("\n[%s completed in %s]\n", *experiment, time.Since(start).Round(time.Millisecond))

	if rec != nil {
		if err := rec.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sagabench:", err)
			os.Exit(1)
		}
		if *metricsDump {
			rec.Registry().WritePrometheus(os.Stdout)
		}
	}
	if *traceOut != "" {
		if err := tracer.DumpChromeFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "sagabench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "sagabench: wrote flight-recorder trace to %s (load at ui.perfetto.dev)\n", *traceOut)
	}
}

func experimentHelp() string {
	s := "experiment to run: all"
	for _, e := range bench.Experiments {
		s += ", " + e.ID
	}
	return s
}
