// Command saga runs one streaming-graph-analytics configuration — a
// dataset, a data structure, an algorithm, and a compute model — through
// the SAGA-Bench pipeline and reports per-stage update, compute, and total
// batch-processing latencies (paper Equation 1) with 95% confidence
// intervals.
//
// Example:
//
//	saga -dataset lj -ds adjshared -alg pr -model inc -threads 8
//
// With -wal DIR the run becomes a durable service stream: every batch is
// write-ahead logged before it is applied, checkpoints are written
// periodically, and a restart with the same -wal resumes where the
// previous process stopped — cleanly, by SIGINT/SIGTERM, or by crash.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/durable"
	"sagabench/internal/elio"
	"sagabench/internal/fault"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
	"sagabench/internal/telemetry"
	"sagabench/internal/trace"
)

func main() {
	var (
		dataset = flag.String("dataset", "lj", fmt.Sprintf("dataset %v", gen.DatasetNames()))
		input   = flag.String("input", "", "edge-list file to stream instead of a synthetic dataset (src dst [weight] lines)")
		batch   = flag.Int("batch", 1000, "batch size for -input streams")
		shuffle = flag.Bool("shuffle", true, "shuffle -input streams before batching (paper methodology)")
		undir   = flag.Bool("undirected", false, "treat the -input stream as undirected")
		profile = flag.String("profile", "default", "dataset scale: tiny, default, large")
		dsName  = flag.String("ds", "adjshared", fmt.Sprintf("data structure %v", ds.Names()))
		alg     = flag.String("alg", "pr", fmt.Sprintf("algorithm %v", compute.AlgNames()))
		model   = flag.String("model", "inc", "compute model: fs or inc")
		threads = flag.Int("threads", 4, "worker threads for both phases")
		view    = flag.Bool("compute-view", false, "maintain an incrementally rebuilt flat CSR mirror and run the compute phase on it (GraphTango-style hybrid)")
		repeats = flag.Int("repeats", 1, "full-stream repetitions (paper uses 3)")
		seed    = flag.Int64("seed", 42, "generator seed")
		source  = flag.Uint("source", 0, "source vertex for bfs/sssp/sswp")
		verbose = flag.Bool("v", false, "print every batch latency")

		listen      = flag.String("listen", "", "serve /metrics (Prometheus + expvar), /debug/pprof, and /trace on this address during the run, e.g. :8090")
		events      = flag.String("events", "", "write one JSONL event per batch to this file, whatever its outcome; with -trace each line also carries the batch's spans")
		metricsDump = flag.Bool("metrics-dump", false, "print the final metrics in Prometheus text format after the run")

		traceOn     = flag.Bool("trace", false, "record a span tree per batch into the flight-recorder ring (dumped on quarantine, served at /trace with -listen)")
		traceFlight = flag.Int("trace-flight", 16, "flight-recorder capacity in complete batch traces")
		traceOut    = flag.String("trace-out", "", "write the flight-recorder ring as Chrome trace-event JSON (Perfetto-loadable) to this file when the run ends; implies -trace")
		pprofLabels = flag.Bool("pprof-labels", false, "run pipeline phases under pprof labels (batch/stage/ds/alg/model) so CPU profiles attribute samples to stages; implies -trace")

		serveQ   = flag.Bool("serve-queries", false, "publish an immutable epoch snapshot after every batch and serve concurrent neighborhood/value reads from it while the stream runs (non-blocking queries); implies -compute-view")
		qReaders = flag.Int("query-readers", 4, "concurrent reader goroutines with -serve-queries")

		walDir    = flag.String("wal", "", "durability directory: write-ahead log every batch, checkpoint periodically, recover and resume on restart")
		fsync     = flag.String("fsync", "interval", "WAL fsync policy with -wal: always, interval, never")
		ckptEvery = flag.Int("checkpoint-every", 64, "checkpoint every N batches with -wal (negative disables periodic checkpoints)")

		faultSpec  = flag.String("fault-schedule", "", "inject I/O and phase faults from a seed-deterministic schedule, e.g. slow(wal-fsync,0.3,2ms);enospc(wal-append,120);stall(compute,40,3s) (see internal/fault; seeded by -seed)")
		degradePol = flag.String("degrade-policy", "", "reaction to a permanent durability fault with -wal: fail (default; the batch errors out), degrade (keep applying in memory, suspend the WAL), read-only (refuse ingest, keep serving queries)")
		maxQueue   = flag.Int("max-queue", 0, "run the -wal pipeline under the supervisor with a bounded ingest queue of N batches, per-phase watchdog deadlines, and panic-isolated restart from the last durable state (0 = direct synchronous ingest)")
		shed       = flag.Bool("shed", false, "with -max-queue, drop the newest batch when the queue is full instead of applying backpressure")
		healthOut  = flag.String("health-out", "", "write the exit health report (JSON) to this file; it is always printed to stderr when the run ends in any state other than healthy")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel ctx: every stream loop stops at the next batch
	// boundary. A durable run then flushes the WAL and writes a final
	// checkpoint on Close; a measurement run closes its outputs and exits
	// 130.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	sched, err := fault.ParseSchedule(*faultSpec, *seed)
	if err != nil {
		fatal(err)
	}
	if (*degradePol != "" || *maxQueue > 0) && *walDir == "" {
		fatal(fmt.Errorf("-degrade-policy and -max-queue require -wal (they govern the durable service path)"))
	}

	var tracer *trace.Tracer
	if *traceOn || *traceOut != "" || *pprofLabels {
		tracer = trace.New(trace.Config{Flight: *traceFlight, PprofLabels: *pprofLabels})
	}

	var rec *telemetry.Recorder
	if *listen != "" || *events != "" || *metricsDump {
		reg := telemetry.NewRegistry()
		var sink *telemetry.EventSink
		if *events != "" {
			f, err := os.Create(*events)
			if err != nil {
				fatal(err)
			}
			sink = telemetry.NewEventSink(f)
		}
		rec = telemetry.NewRecorder(reg, sink)
		if *listen != "" {
			srv, err := telemetry.ListenAndServe(*listen, reg, tracer)
			if err != nil {
				fatal(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "saga: telemetry on http://%s (/metrics, /debug/pprof/, /trace)\n", srv.Addr())
		}
	}

	pc := core.PipelineConfig{
		DataStructure: *dsName,
		Algorithm:     *alg,
		Model:         compute.Model(*model),
		Threads:       *threads,
		ComputeView:   *view,
		ServeQueries:  *serveQ,
		Compute:       compute.Options{Source: graph.NodeID(*source)},
		Telemetry:     rec,
		Tracer:        tracer,
		DegradePolicy: core.DegradePolicy(*degradePol),
	}
	if sched != nil {
		pc.Faults = sched
	}
	// With -serve-queries, each measured pipeline gets a concurrent reader
	// fleet pinned to its published epochs; the per-run stats accumulate
	// for the summary line after the latency table.
	var qstats core.QueryLoadStats
	var onPipeline func(*core.Pipeline) func()
	if *serveQ {
		onPipeline = func(p *core.Pipeline) func() {
			ql, qerr := core.StartQueryLoad(p, core.QueryLoadConfig{Readers: *qReaders, Seed: *seed})
			if qerr != nil {
				fatal(qerr)
			}
			return func() { qstats.Add(ql.Stop()) }
		}
	}
	var onBatch func(core.MixedBatch, *core.BatchRecord)
	if *verbose {
		// The index is the record's, which the event log carries too.
		onBatch = func(_ core.MixedBatch, r *core.BatchRecord) {
			lat := r.Latency()
			fmt.Printf("batch %4d: edges=%6d nodes=%8d update=%-12s compute=%-12s total=%s\n",
				r.Index, r.Adds, r.Nodes, lat.Update, lat.Compute, lat.Total())
		}
	}

	out := &outputs{rec: rec, events: *events, tracer: tracer, traceOut: *traceOut}

	var res *core.RunResult
	var healthRep *core.HealthReport
	label := *dataset
	var edges []graph.Edge
	batchSize := *batch
	if *input != "" {
		label = *input
		f, ferr := os.Open(*input)
		if ferr != nil {
			fatal(ferr)
		}
		edges, err = elio.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if *shuffle {
			gen.Shuffle(edges, *seed)
		}
		pc.Directed = !*undir
	} else {
		spec, serr := gen.Dataset(*dataset, gen.Profile(*profile))
		if serr != nil {
			fatal(serr)
		}
		pc.Directed = spec.Directed
		if pc.MaxNodesHint == 0 {
			pc.MaxNodesHint = spec.NumNodes
		}
		edges = spec.Generate(*seed)
		batchSize = spec.BatchSize
	}

	if *walDir != "" {
		dcfg := durable.Config{
			Dir:             *walDir,
			Fsync:           durable.FsyncPolicy(*fsync),
			CheckpointEvery: *ckptEvery,
		}
		if sched != nil {
			// One schedule instance feeds both layers so occurrence
			// counts are shared between WAL/checkpoint and phase ops.
			dcfg.IO = sched
		}
		if *maxQueue > 0 {
			healthRep, err = runSupervised(ctx, pc, dcfg, edges, batchSize, *maxQueue, *shed, onPipeline)
		} else {
			res, healthRep, err = runDurable(ctx, pc, dcfg, edges, batchSize, *repeats, onBatch, onPipeline)
		}
	} else {
		res, err = core.Run(ctx, core.RunConfig{
			PipelineConfig: pc,
			Edges:          edges,
			BatchSize:      batchSize,
			Repeats:        *repeats,
			OnBatch:        onBatch,
			OnPipeline:     onPipeline,
		})
	}
	if err != nil {
		// A dying durable run still owes its health report (and the
		// -health-out artifact), and every run its outputs. An interrupted
		// measurement run stopped at a batch boundary, so every batch -v
		// printed is in the event log.
		emitHealth(healthRep, *healthOut)
		code := 1
		if errors.Is(err, ctx.Err()) {
			code, err = 130, errors.New("interrupted, closed outputs")
		}
		if cerr := out.close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "saga:", cerr)
		}
		fmt.Fprintln(os.Stderr, "saga:", err)
		os.Exit(code)
	}

	if res != nil {
		fmt.Printf("dataset=%s ds=%s alg=%s model=%s threads=%d batches=%d repeats=%d\n",
			label, *dsName, *alg, *model, *threads, res.BatchCount, len(res.Update))
		fmt.Printf("%-8s %14s %14s %14s\n", "stage", "update", "compute", "total")
		names := [3]string{"P1", "P2", "P3"}
		upd, err := res.StageSummaries(core.MetricUpdate)
		if err != nil {
			fatal(err)
		}
		cmp, err := res.StageSummaries(core.MetricCompute)
		if err != nil {
			fatal(err)
		}
		tot, err := res.StageSummaries(core.MetricTotal)
		if err != nil {
			fatal(err)
		}
		for i := range names {
			fmt.Printf("%-8s %14s %14s %14s\n", names[i], upd[i], cmp[i], tot[i])
		}
		share, err := res.UpdateShare()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("update share of batch latency: P1=%.0f%% P2=%.0f%% P3=%.0f%%\n",
			100*share[0], 100*share[1], 100*share[2])
	}

	violated := false
	if *serveQ {
		fmt.Printf("queries: readers=%d served=%d (%.0f/s) sessions=%d misses=%d max-staleness=%d batches [%s]\n",
			*qReaders, qstats.Queries, qstats.QPS(), qstats.Sessions, qstats.Misses, qstats.MaxStaleness,
			compute.ValueLabel(*alg))
		if qstats.Violations > 0 {
			fmt.Fprintf(os.Stderr, "saga: %d query consistency violations, first: %s\n",
				qstats.Violations, qstats.FirstViolation)
			violated = true
		}
	}

	if err := out.close(); err != nil {
		fatal(err)
	}
	if *metricsDump {
		rec.Registry().WritePrometheus(os.Stdout)
	}
	code := emitHealth(healthRep, *healthOut)
	if violated {
		code = 1
	}
	if code != 0 {
		os.Exit(code)
	}
}

// outputs are the files a run buffers until it ends: the event log and
// the flight-recorder dump. close writes and closes both — on a normal
// exit, an error exit and an interrupt alike, always after the stream
// stopped — and reports every error it met.
type outputs struct {
	rec      *telemetry.Recorder
	events   string
	tracer   *trace.Tracer
	traceOut string
}

func (o *outputs) close() error {
	var errs []error
	if o.traceOut != "" {
		if err := o.tracer.DumpChromeFile(o.traceOut); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Fprintf(os.Stderr, "saga: wrote flight-recorder trace to %s (load at ui.perfetto.dev)\n", o.traceOut)
		}
	}
	if err := o.rec.Close(); err != nil {
		errs = append(errs, err)
	} else if o.events != "" {
		fmt.Fprintf(os.Stderr, "saga: wrote batch events to %s\n", o.events)
	}
	return errors.Join(errs...)
}

// emitHealth writes the durable run's health report — to -health-out
// when set, and to stderr whenever the run ended in any state other
// than healthy. It returns the process exit code: 0 for a healthy run
// (or a run with no health machine), 2 otherwise, so scripts can tell a
// degraded pipeline (2) from an operational error (1).
func emitHealth(rep *core.HealthReport, path string) int {
	if rep == nil {
		return 0
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		data = []byte(fmt.Sprintf("{\"state\":%q}", rep.State))
	}
	if path != "" {
		if werr := os.WriteFile(path, append(data, '\n'), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "saga: writing -health-out: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "saga: wrote health report to %s\n", path)
		}
	}
	if rep.Healthy() {
		return 0
	}
	fmt.Fprintf(os.Stderr, "saga: pipeline ended %s\n%s\n", rep.State, data)
	return 2
}

// runDurable streams the batches through a durable pipeline, resuming
// past whatever the durability directory already covers. Repeats make no
// sense against persistent state, so the stream runs exactly once; with
// nothing left to stream the result is nil. The returned health report
// reflects the whole run including Close; it is non-nil whenever the
// pipeline carried a health machine (any explicit -degrade-policy).
func runDurable(ctx context.Context, pc core.PipelineConfig, dcfg durable.Config, edges []graph.Edge, batchSize, repeats int,
	onBatch func(core.MixedBatch, *core.BatchRecord),
	onPipeline func(*core.Pipeline) func()) (*core.RunResult, *core.HealthReport, error) {
	if batchSize <= 0 {
		return nil, nil, fmt.Errorf("batch size must be positive")
	}
	if repeats > 1 {
		fmt.Fprintf(os.Stderr, "saga: -wal streams once against persistent state; ignoring -repeats %d\n", repeats)
	}
	pc.Durable = &dcfg
	p, err := core.NewPipeline(pc)
	if err != nil {
		return nil, nil, err
	}
	batches := core.InsertBatches(edges, batchSize)
	resume := int(min(p.DurableSeq(), uint64(len(batches))))
	if resume > 0 {
		fmt.Fprintf(os.Stderr, "saga: recovered %s through batch %d, resuming\n", dcfg.Dir, resume)
	}
	var stopLoad func()
	if onPipeline != nil {
		stopLoad = onPipeline(p)
	}
	upd, cmp, err := core.Stream(ctx, p, batches[resume:], onBatch)
	if stopLoad != nil {
		stopLoad()
	}
	cerr := p.Close()
	rep := p.HealthReport()
	switch {
	case errors.Is(err, core.ErrReadOnly), errors.Is(err, core.ErrFailed):
		// The health machine refused ingest; the report carries the story.
		fmt.Fprintf(os.Stderr, "saga: ingest refused at batch %d: %v\n", resume+len(upd), err)
	case err != nil && ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "saga: interrupted at batch %d/%d; WAL flushed and checkpoint written, re-run with the same -wal to resume\n",
			p.DurableSeq(), len(batches))
	case err != nil:
		return nil, &rep, err
	}
	if cerr != nil {
		return nil, &rep, cerr
	}
	for _, path := range p.PoisonFiles() {
		fmt.Fprintf(os.Stderr, "saga: quarantined poison batch: %s (replay: sagafuzz -replay %s)\n", path, path)
	}
	if resume == len(batches) {
		fmt.Fprintf(os.Stderr, "saga: stream already complete (%d batches durable in %s); nothing to do\n",
			len(batches), dcfg.Dir)
	}
	if len(upd) == 0 {
		return nil, &rep, nil
	}
	return &core.RunResult{
		BatchCount: len(upd),
		Update:     [][]float64{upd},
		Compute:    [][]float64{cmp},
	}, &rep, nil
}

// runSupervised streams the batches through the supervised runtime: a
// bounded ingest queue in front of the durable pipeline, per-phase
// watchdog deadlines, and panic-isolated restart from the last durable
// state. Ingest is asynchronous, so the per-batch latency table does
// not apply; the run reports ingest counters and health instead.
func runSupervised(ctx context.Context, pc core.PipelineConfig, dcfg durable.Config, edges []graph.Edge, batchSize, maxQueue int, shed bool,
	onPipeline func(*core.Pipeline) func()) (*core.HealthReport, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("batch size must be positive")
	}
	pc.Durable = &dcfg
	sup, err := core.NewSupervisor(core.SupervisorConfig{
		Pipeline: pc,
		MaxQueue: maxQueue,
		Shed:     shed,
	})
	if err != nil {
		return nil, err
	}
	// The reader fleet pins the initial instance; epoch snapshots it
	// published keep serving even after a restart fences it.
	var stopLoad func()
	if onPipeline != nil {
		stopLoad = onPipeline(sup.Pipeline())
	}
	batches := graph.Batches(edges, batchSize)
	resume := sup.DurableSeq()
	if resume > 0 {
		fmt.Fprintf(os.Stderr, "saga: recovered %s through batch %d, resuming\n", dcfg.Dir, resume)
	}
	submitted, shedN := 0, 0
	interrupted := false
stream:
	for bi, b := range batches {
		if uint64(bi) < resume {
			continue
		}
		if ctx.Err() != nil {
			interrupted = true
			break stream
		}
		serr := sup.Submit(core.MixedBatch{Adds: b})
		switch {
		case serr == nil:
			submitted++
		case errors.Is(serr, core.ErrShed):
			shedN++
		case errors.Is(serr, core.ErrReadOnly), errors.Is(serr, core.ErrFailed):
			fmt.Fprintf(os.Stderr, "saga: ingest refused at batch %d: %v\n", bi, serr)
			break stream
		default:
			if stopLoad != nil {
				stopLoad()
			}
			sup.Close()
			rep := sup.Report()
			return &rep, serr
		}
	}
	if stopLoad != nil {
		stopLoad()
	}
	cerr := sup.Close()
	rep := sup.Report()
	if interrupted {
		fmt.Fprintf(os.Stderr, "saga: interrupted; WAL flushed through batch %d, re-run with the same -wal to resume\n",
			sup.DurableSeq())
	}
	for _, path := range rep.Quarantined {
		fmt.Fprintf(os.Stderr, "saga: quarantined poison batch: %s (replay: sagafuzz -replay %s)\n", path, path)
	}
	fmt.Printf("supervised: batches=%d submitted=%d shed=%d refused=%d restarts=%d watchdog-fires=%d retries=%d state=%s\n",
		len(batches), submitted, shedN, rep.Refused, rep.Restarts, rep.WatchdogFires, rep.DurableRetry, rep.State)
	return &rep, cerr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "saga:", err)
	os.Exit(1)
}
