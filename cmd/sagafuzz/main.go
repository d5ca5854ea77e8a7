// Command sagafuzz is the differential fuzz driver: it generates a
// deterministic, seed-driven edge stream and replays it through one
// core.Pipeline per selected (data structure, algorithm, model),
// cross-checking each pipeline's full adjacency (and compute mirror)
// against the sequential oracle and its values against the sequential
// reference implementations after every batch (internal/crashloop's
// sweep).
//
// A clean sweep exits 0. On divergence it minimizes the failing stream
// (drop whole batches, then single edges) and writes a replayable repro:
//
//	sagafuzz -seed 1 -batches 50              # the sweep
//	sagafuzz -replay sagafuzz.repro           # re-run a minimized repro
//	sagafuzz -crash                           # kill/recover durability soak
//
// -inject plants a deliberate defect in the stream the pipelines ingest to
// demonstrate the catch-and-shrink loop end to end (see -help).
//
// -crash switches to the durability soak (internal/crashloop): a durable
// pipeline is killed at every registered crash point in rotation — with
// optional torn writes, bit flips, and poison batches layered on — and
// the state recovered from disk is diffed against the sequential oracle.
//
// Two invariants the fuzzer used to probe for at runtime are now enforced
// statically by sagavet (cmd/sagavet, internal/analysis) and need no
// dynamic check: same -seed = same stream (the stream generator lives in
// a saga:deterministic package, so wall-clock reads, unseeded randomness,
// and map-ordered iteration are build errors), and worker panics cannot
// kill the sweep before the quarantine sees them (every goroutine launch
// in the saga:paniccapture packages must capture and re-raise).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sagabench/internal/compute"
	"sagabench/internal/crashloop"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/durable"
	"sagabench/internal/graph"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "stream generation seed (same seed = same stream, statically enforced by sagavet's determinism analyzer)")
		batches   = flag.Int("batches", 50, "number of stream steps")
		batchSize = flag.Int("batch-size", 400, "edges per step")
		nodes     = flag.Int("nodes", 96, "vertex ID space (small = dense collisions)")
		directed  = flag.Bool("directed", true, "stream directedness")
		deletes   = flag.Bool("deletes", true, "mix deletion batches into the stream")
		threads   = flag.Int("threads", 4, "worker threads for update and compute phases")
		dsList    = flag.String("ds", "", "comma-separated data structures (default: all registered)")
		algList   = flag.String("algs", "", "comma-separated algorithms (default: all six)")
		modList   = flag.String("models", "", "comma-separated compute models: fs,inc (default: both)")
		topoOnly  = flag.Bool("topology-only", false, "skip the compute engines, check adjacency only")
		replay    = flag.String("replay", "", "replay a repro file instead of fuzzing")
		out       = flag.String("out", "sagafuzz.repro", "where to write the minimized repro on failure")
		inject    = flag.String("inject", "", "plant a defect: drop-edge:SRC:DST | degree-cap:CAP | stale-weight")

		crash      = flag.Bool("crash", false, "run the durability kill/recover soak instead of fuzzing")
		crashDir   = flag.String("crash-dir", "", "durability directory for -crash (default: temp dir, kept on failure)")
		crashDS    = flag.String("crash-ds", "adjshared", "data structure for -crash")
		crashAlg   = flag.String("crash-alg", "pr", "algorithm for -crash")
		crashModel = flag.String("crash-model", "inc", "compute model for -crash: fs or inc")
		crashFsync = flag.String("crash-fsync", "interval", "WAL fsync policy for -crash: always, interval, never")
		noFaults   = flag.Bool("crash-no-faults", false, "disable torn writes, bit flips, and poison injection in -crash")
		diskFaults = flag.String("crash-disk-faults", "", "fault-schedule spec layered under the kills, e.g. slow(wal-fsync,0.3,2ms);enospc(wal-append,5);eio(ckpt-rename,1)")
		verifyEach = flag.Bool("crash-verify-recoveries", false, "diff recovered state against the oracle after every recovery, not only at the end")
		noKills    = flag.Bool("crash-no-kills", false, "disable the rotating crash points, leaving -crash-disk-faults as the only death source")
	)
	flag.Parse()

	fault, err := parseFault(*inject)
	if err != nil {
		fatalf("bad -inject: %v", err)
	}

	if *crash {
		os.Exit(runCrash(crashloop.Options{
			Seed:               *seed,
			Batches:            *batches,
			BatchSize:          *batchSize,
			NumNodes:           *nodes,
			Directed:           *directed,
			Deletes:            *deletes,
			DS:                 *crashDS,
			Alg:                *crashAlg,
			Model:              compute.Model(*crashModel),
			Threads:            *threads,
			Dir:                *crashDir,
			Fsync:              durable.FsyncPolicy(*crashFsync),
			TornWrites:         !*noFaults,
			BitFlips:           !*noFaults,
			Poison:             !*noFaults,
			DiskFaults:         *diskFaults,
			VerifyEachRecovery: *verifyEach,
			NoKills:            *noKills,
		}))
	}

	if *replay != "" {
		os.Exit(runReplay(*replay, fault))
	}

	cfg := crashloop.SweepConfig{
		Stream: crosscheck.StreamConfig{
			Seed:      *seed,
			Batches:   *batches,
			BatchSize: *batchSize,
			NumNodes:  *nodes,
			Directed:  *directed,
			Deletes:   *deletes,
		},
		Threads:      *threads,
		Structures:   validStructures(splitList(*dsList)),
		Algorithms:   splitList(*algList),
		TopologyOnly: *topoOnly,
		Fault:        fault,
	}
	for _, m := range splitList(*modList) {
		switch m {
		case string(compute.FS), string(compute.INC):
			cfg.Models = append(cfg.Models, compute.Model(m))
		default:
			fatalf("unknown model %q (want fs or inc)", m)
		}
	}

	stream := crosscheck.NewStream(cfg.Stream)
	adds, dels := stream.NumEdges()
	rep := crashloop.Replay(cfg, stream)
	fmt.Printf("sagafuzz: seed %d: %d batches (%d adds, %d dels) x %d structures: %d topology checks, %d value checks\n",
		*seed, rep.Batches, adds, dels, len(rep.Structures), rep.TopologyChecks, rep.ValueChecks)
	if rep.OK() {
		fmt.Println("sagafuzz: PASS: all structures and engines agree with the sequential oracle")
		return
	}

	fmt.Printf("sagafuzz: FAIL: %d divergence(s):\n", len(rep.Failures))
	for _, f := range rep.Failures {
		fmt.Printf("  %s\n", f)
	}
	first := rep.Failures[0]
	label := "topology"
	if first.Kind != "topology" {
		label = fmt.Sprintf("%s/%s", first.Alg, first.Model)
	}
	fmt.Printf("sagafuzz: minimizing %s failure on %s...\n", label, first.DS)
	repro := crashloop.MinimizeFailure(cfg, stream, first)
	madds, mdels := repro.Stream.NumEdges()
	fmt.Printf("sagafuzz: minimized to %d batches / %d adds / %d dels\n", len(repro.Stream), madds, mdels)
	if err := repro.WriteFile(*out); err != nil {
		fatalf("writing repro: %v", err)
	}
	// The repro stores the stream, not the planted defect: replaying an
	// -inject run needs the same -inject spec again.
	rerun := fmt.Sprintf("sagafuzz -replay %s", *out)
	if *inject != "" {
		rerun = fmt.Sprintf("sagafuzz -replay %s -inject %s", *out, *inject)
	}
	fmt.Printf("sagafuzz: repro written to %s (re-run: %s)\n", *out, rerun)
	os.Exit(1)
}

// runCrash drives the kill/recover soak and reports the outcome.
func runCrash(opts crashloop.Options) int {
	opts.Logf = func(format string, args ...any) {
		fmt.Printf("sagafuzz: "+format+"\n", args...)
	}
	res, err := crashloop.Run(opts)
	if err != nil {
		fatalf("crash soak: %v", err)
	}
	fmt.Printf("sagafuzz: %d batches through %d kill/recover cycles (%d recoveries, %d torn tails, %d bit flips, %d quarantines)\n",
		res.Batches, res.Cycles, res.Recoveries, res.TornTails, res.BitFlips, len(res.PoisonFiles))
	for _, pt := range durable.CrashPoints {
		if n := res.Crashes[pt]; n > 0 {
			fmt.Printf("sagafuzz:   crashed %2dx at %s\n", n, pt)
		}
	}
	if res.DiskKills > 0 || len(res.Injections) > 0 {
		fmt.Printf("sagafuzz:   disk faults: %d generation(s) killed, injections %s\n",
			res.DiskKills, strings.Join(res.Injections, " "))
	}
	if res.RecoveryOK > 0 {
		fmt.Printf("sagafuzz:   %d recoveries verified against the oracle\n", res.RecoveryOK)
	}
	for _, pf := range res.PoisonFiles {
		fmt.Printf("sagafuzz:   quarantined: %s (replay: sagafuzz -replay %s)\n", pf, pf)
	}
	if res.OK() {
		fmt.Println("sagafuzz: PASS: recovered state matches the sequential oracle after every crash")
		return 0
	}
	fmt.Printf("sagafuzz: FAIL: %d divergence(s) after recovery:\n", len(res.Failures))
	for _, f := range res.Failures {
		fmt.Printf("  %s\n", f)
	}
	if res.KeepArtifact {
		fmt.Printf("sagafuzz: durability directory kept for inspection: %s\n", res.Dir)
	}
	return 1
}

func runReplay(path string, fault *crosscheck.FaultSpec) int {
	r, err := crosscheck.ReadReproFile(path)
	if err != nil {
		fatalf("reading repro: %v", err)
	}
	what := "topology"
	if r.Alg != "" {
		what = fmt.Sprintf("%s/%s", r.Alg, r.Model)
	}
	radds, rdels := r.Stream.NumEdges()
	fmt.Printf("sagafuzz: replaying %s: %s on %s, %d batches / %d adds / %d dels\n",
		path, what, r.DS, len(r.Stream), radds, rdels)
	rep := crashloop.ReplayRepro(r, fault)
	if rep.OK() {
		fmt.Println("sagafuzz: PASS: repro no longer reproduces")
		return 0
	}
	fmt.Printf("sagafuzz: FAIL: still reproduces:\n")
	for _, f := range rep.Failures {
		fmt.Printf("  %s\n", f)
	}
	return 1
}

// parseFault parses -inject; an empty spec returns nil (no defect).
func parseFault(spec string) (*crosscheck.FaultSpec, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	fs := &crosscheck.FaultSpec{}
	switch parts[0] {
	case string(crosscheck.FaultDropEdge):
		if len(parts) != 3 {
			return nil, fmt.Errorf("want drop-edge:SRC:DST")
		}
		src, err1 := strconv.ParseUint(parts[1], 10, 32)
		dst, err2 := strconv.ParseUint(parts[2], 10, 32)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad vertex in %q", spec)
		}
		fs.Fault = crosscheck.FaultDropEdge
		fs.Src, fs.Dst = graph.NodeID(src), graph.NodeID(dst)
	case string(crosscheck.FaultDegreeCap):
		if len(parts) != 2 {
			return nil, fmt.Errorf("want degree-cap:CAP")
		}
		capv, err := strconv.Atoi(parts[1])
		if err != nil || capv <= 0 {
			return nil, fmt.Errorf("bad cap in %q", spec)
		}
		fs.Fault = crosscheck.FaultDegreeCap
		fs.Cap = capv
	case string(crosscheck.FaultStaleWeight):
		if len(parts) != 1 {
			return nil, fmt.Errorf("stale-weight takes no arguments")
		}
		fs.Fault = crosscheck.FaultStaleWeight
	default:
		return nil, fmt.Errorf("unknown fault %q", parts[0])
	}
	return fs, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// validStructures rejects unknown -ds names before the sweep starts, so a
// typo fails with the registry listing instead of a spurious divergence.
func validStructures(names []string) []string {
	for _, name := range names {
		known := false
		for _, have := range ds.Names() {
			if name == have {
				known = true
				break
			}
		}
		if !known {
			fatalf("unknown -ds %q (have %v)", name, ds.Names())
		}
	}
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sagafuzz: "+format+"\n", args...)
	os.Exit(1)
}
