// Package crashloop holds the differentials that drive a real
// core.Pipeline with deterministic crosscheck streams and judge it against
// the sequential oracle (crosscheck itself cannot import core: the
// durability layer imports its repro codec).
//
// Sweep/Replay is the per-step sweep behind `sagafuzz`: one pipeline per
// (structure, algorithm, model), its structure, compute mirror and values
// diffed against the oracle and the sequential references after every
// step, failures minimized to a replayable repro (sweep.go).
//
// ReadDuring is the read-during-update differential: readers pin the
// pipeline's published epochs while it ingests, and every observation is
// re-answered from ground truth at its pinned batch (readduring.go).
//
// Run is the kill/recover soak behind `sagafuzz -crash`: it streams
// through a durable pipeline while simulating a kill at every registered
// durable.CrashPoint in rotation, recovering from disk after each one,
// optionally tearing and bit-flipping the WAL tail between generations
// and injecting poison batches mid-stream. The driver behaves like a real
// client of a durable service: whatever the durability layer did not
// acknowledge (DurableSeq) it re-submits. When the stream finally
// completes, the on-disk state is re-opened cold and the recovered
// adjacency and vertex properties are diffed against the sequential
// oracle's replay of the same (non-poisoned) stream.
//
// The soak leans on invariants sagavet enforces statically (see
// internal/analysis): internal/durable is saga:durable, so no error on
// the WAL/checkpoint write path can be silently discarded, and the
// pipeline's compute packages are saga:paniccapture, so a poison batch
// surfaces as a recoverable panic on the submitting goroutine rather
// than killing the soak from a worker.
package crashloop

import (
	"fmt"
	"os"
	"sort"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/fault"
	"sagabench/internal/graph"
)

// Options parameterizes one soak run. Zero values select defaults sized
// for a CI-friendly run (~seconds).
type Options struct {
	Seed      int64
	Batches   int // default 30
	BatchSize int // default 200
	NumNodes  int // default 64
	Directed  bool
	Deletes   bool

	DS      string        // default "adjshared"
	Alg     string        // default "pr"
	Model   compute.Model // default compute.INC
	Threads int           // default 4

	// Dir is the durability directory (default: a fresh temp dir, removed
	// when the run passes and kept for inspection when it fails).
	Dir             string
	Fsync           durable.FsyncPolicy // default interval
	CheckpointEvery int                 // default 5 (small, so checkpoints interleave crashes)

	// TornWrites/BitFlips additionally corrupt the WAL tail after
	// (alternating) crashes, exercising truncation and checksum recovery
	// against real files.
	TornWrites bool
	BitFlips   bool

	// DiskFaults is a fault-schedule spec (see fault.ParseSchedule)
	// layered under the kills: each generation arms a fresh copy with
	// occurrence counts offset by the cycle index, so injected faults land
	// further into the stream every round and the stream still completes.
	// Transient faults (eio, slow) must be absorbed by the durable retry
	// policy; a permanent fault (enospc, short) that escapes retry kills
	// the generation exactly like a simulated crash — recovery must cope
	// with a disk that died mid-operation, not only with a clean kill.
	DiskFaults string

	// VerifyEachRecovery diffs the recovered topology and vertex values
	// against the sequential oracle's replay of the durable prefix after
	// every recovery, instead of only at the final cold restart. Catches
	// recoveries that return plausible-but-wrong state which the stream
	// tail would otherwise paper over.
	VerifyEachRecovery bool

	// NoKills disables the rotating crash-point schedule, leaving
	// DiskFaults as the only death source — used to soak the disk-fault
	// path in isolation.
	NoKills bool
	// Poison injects apply failures at two fixed sequence numbers via
	// ApplyProbe; the batches must be quarantined and excluded from the
	// oracle.
	Poison bool

	// MaxCycles bounds the kill/recover generations (default 400); the
	// rotating schedule crashes later each round, so the stream always
	// completes well within it.
	MaxCycles int

	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Batches <= 0 {
		o.Batches = 30
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 200
	}
	if o.NumNodes <= 0 {
		o.NumNodes = 64
	}
	if o.DS == "" {
		o.DS = "adjshared"
	}
	if o.Alg == "" {
		o.Alg = "pr"
	}
	if o.Model == "" {
		o.Model = compute.INC
	}
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Fsync == "" {
		o.Fsync = durable.FsyncInterval
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 5
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 400
	}
	return o
}

// tighten fills o's unset convergence knobs with the tight values every
// differential here needs: pipeline values are compared against the
// sequential references at compute.Tolerance, so PageRank must converge
// far past its default.
func tighten(o compute.Options) compute.Options {
	if o.PRTolerance == 0 {
		o.PRTolerance = 1e-12
	}
	if o.PRMaxIters == 0 {
		o.PRMaxIters = 200
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-12
	}
	return o
}

// Result summarizes one soak run.
type Result struct {
	Dir          string
	Batches      int
	Cycles       int
	Crashes      map[durable.CrashPoint]int
	TornTails    int
	BitFlips     int
	Recoveries   int
	DiskKills    int      // generations ended by an injected permanent disk fault
	Injections   []string // "kind(op)xN" totals across every generation's schedule
	RecoveryOK   int      // per-recovery oracle verifications that ran (VerifyEachRecovery)
	PoisonFiles  []string
	ReplayedOK   bool // the final cold restart recovered and replayed
	Failures     []string
	KeepArtifact bool // Dir was kept on disk for inspection
}

// OK reports whether the recovered state matched the oracle everywhere.
func (r *Result) OK() bool { return len(r.Failures) == 0 }

// Run executes the soak loop.
func Run(o Options) (*Result, error) {
	o = o.withDefaults()
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := o.Dir
	ownDir := false
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "sagacrash-")
		if err != nil {
			return nil, err
		}
		ownDir = true
	}
	res := &Result{Dir: dir, Batches: o.Batches, Crashes: map[durable.CrashPoint]int{}}

	stream := crosscheck.NewStream(crosscheck.StreamConfig{
		Seed:      o.Seed,
		Batches:   o.Batches,
		BatchSize: o.BatchSize,
		NumNodes:  o.NumNodes,
		Directed:  o.Directed,
		Deletes:   o.Deletes,
	})

	// Poison two fixed sequence numbers (batch index + 1): the probe
	// fails them deterministically on every attempt — live, retried, and
	// replayed — so quarantine must hold across crashes.
	poisonSeq := map[uint64]bool{}
	if o.Poison && o.Batches >= 3 {
		poisonSeq[uint64(o.Batches/3)+1] = true
		poisonSeq[uint64(2*o.Batches/3)+1] = true
	}

	// The sequential ground truth applies exactly the batches the durable
	// pipeline is allowed to keep: everything except the poisoned ones.
	oracle := graph.NewOracle(o.Directed)
	for i, step := range stream {
		if poisonSeq[uint64(i)+1] {
			continue
		}
		oracle.Update(step.Adds)
		oracle.Delete(step.Dels)
	}
	copts := tighten(compute.Options{Threads: o.Threads})
	want := compute.MustReference(o.Alg, oracle, copts)

	pcfg := core.PipelineConfig{
		DataStructure: o.DS,
		Algorithm:     o.Alg,
		Model:         o.Model,
		Directed:      o.Directed,
		Threads:       o.Threads,
		Compute:       copts,
	}
	probe := func(seq uint64, adds, dels graph.Batch) error {
		if poisonSeq[seq] {
			return fmt.Errorf("crashloop: injected poison at seq %d", seq)
		}
		return nil
	}

	// The disk-fault schedule, when present, is re-armed each generation
	// with occurrence counts shifted by the cycle index — the same
	// guaranteed-progress trick as the rotating crash schedule below.
	base, err := fault.ParseSchedule(o.DiskFaults, o.Seed)
	if err != nil {
		if ownDir {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	injCounts := map[string]int{}
	mergeInjections := func(s *fault.Schedule) {
		for _, inj := range s.Injections() {
			injCounts[fmt.Sprintf("%s(%s)", inj.Kind, inj.Op)]++
		}
	}

	// The crash schedule rotates through every point; round r arms the
	// (r+1)th occurrence, so each generation gets further than the last
	// and the stream is guaranteed to finish.
	arm := 0
	faultFlip := 0
	done := false
	for cycle := 0; !done; cycle++ {
		if cycle >= o.MaxCycles {
			res.Failures = append(res.Failures,
				fmt.Sprintf("stream did not complete within %d kill/recover cycles", o.MaxCycles))
			break
		}
		res.Cycles = cycle + 1
		point := durable.CrashPoints[arm%len(durable.CrashPoints)]
		nth := 1 + arm/len(durable.CrashPoints)
		arm++
		dcfg := durable.Config{
			Dir:             dir,
			Fsync:           o.Fsync,
			CheckpointEvery: o.CheckpointEvery,
			MaxRetries:      1,
			RetryBackoff:    time.Microsecond,
			Crash:           durable.CrashAt(point, nth),
			ApplyProbe:      probe,
		}
		if o.NoKills {
			dcfg.Crash = nil
		}
		sched := base.Offset(uint64(cycle))
		if sched != nil {
			dcfg.IO = sched
		}
		cfg := pcfg
		cfg.Durable = &dcfg

		// diskKill classifies an error escaping the durable layer: an
		// injected fault ends the generation like a crash would; anything
		// else is a real harness failure.
		diskKill := func(stage string, err error) (bool, error) {
			if !fault.IsInjected(err) {
				return false, err
			}
			res.DiskKills++
			logf("cycle %d: %s killed by injected disk fault: %v", cycle, stage, err)
			return true, nil
		}

		p, crash, err := build(cfg)
		if err != nil {
			if killed, err := diskKill("recovery", err); !killed {
				mergeInjections(sched)
				return res, err
			}
			mergeInjections(sched)
			continue
		}
		if crash == nil {
			res.Recoveries++
			if o.VerifyEachRecovery {
				res.RecoveryOK++
				if fails := verifyRecovered(p, stream, poisonSeq, o, copts); len(fails) > 0 {
					res.Failures = append(res.Failures, fails...)
					p.Abandon()
					mergeInjections(sched)
					break
				}
			}
			cursor := p.DurableSeq()
			crash, err = drive(p, stream, cursor)
			if err != nil {
				killed, err := diskKill("stream", err)
				if !killed {
					mergeInjections(sched)
					return res, err
				}
				// Quarantines that happened before the kill are real
				// outcomes; harvest them before abandoning the generation.
				res.PoisonFiles = append(res.PoisonFiles, p.PoisonFiles()...)
				p.Abandon()
				mergeInjections(sched)
				continue
			}
			res.PoisonFiles = append(res.PoisonFiles, p.PoisonFiles()...)
			if crash == nil {
				// Stream complete; the armed hook may still kill the
				// final checkpoint inside Close.
				var cerr error
				crash, cerr = safeClose(p)
				if cerr != nil {
					killed, cerr := diskKill("close", cerr)
					if !killed {
						mergeInjections(sched)
						return res, cerr
					}
					p.Abandon()
					mergeInjections(sched)
					continue
				}
				done = crash == nil
			}
		}
		mergeInjections(sched)
		if crash != nil {
			res.Crashes[crash.Point]++
			durableSeq := uint64(0)
			if p != nil { // nil when the kill hit recovery itself
				p.Abandon()
				durableSeq = p.DurableSeq()
			}
			logf("cycle %d: crashed at %s (occurrence %d), seq %d/%d durable",
				cycle, crash.Point, nth, durableSeq, len(stream))
			// Pile disk-level faults on top of the kill.
			if o.TornWrites && faultFlip%2 == 0 {
				if n, err := durable.TornTail(dir, 5); err == nil && n > 0 {
					res.TornTails++
					logf("cycle %d: tore %d bytes off the WAL tail", cycle, n)
				}
			} else if o.BitFlips && faultFlip%2 == 1 {
				if ok, err := durable.FlipTailBit(dir); err == nil && ok {
					res.BitFlips++
					logf("cycle %d: flipped a bit in the WAL tail", cycle)
				}
			}
			faultFlip++
		}
	}

	keys := make([]string, 0, len(injCounts))
	for k := range injCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		res.Injections = append(res.Injections, fmt.Sprintf("%sx%d", k, injCounts[k]))
	}

	if len(res.Failures) == 0 {
		// Cold restart with no fault injection: recovery alone must
		// reproduce the oracle's state.
		vcfg := pcfg
		vcfg.Durable = &durable.Config{Dir: dir, Fsync: o.Fsync, CheckpointEvery: -1}
		p, err := core.NewPipeline(vcfg)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("cold restart failed: %v", err))
		} else {
			res.ReplayedOK = true
			if got := p.DurableSeq(); got != uint64(len(stream)) {
				res.Failures = append(res.Failures,
					fmt.Sprintf("recovered through seq %d, want %d", got, len(stream)))
			}
			for _, d := range ds.DiffOracle(p.Graph(), oracle, 8) {
				res.Failures = append(res.Failures, "topology: "+d)
			}
			tol := compute.Tolerance(o.Alg)
			if v := compute.DiffValues(p.Values(), want, tol); v >= 0 {
				got, wv := "?", "?"
				vals := p.Values()
				if v < len(vals) {
					got = fmt.Sprintf("%v", vals[v])
				}
				if v < len(want) {
					wv = fmt.Sprintf("%v", want[v])
				}
				res.Failures = append(res.Failures,
					fmt.Sprintf("values: vertex %d: got %s want %s (%s/%s, tol %g)", v, got, wv, o.Alg, o.Model, tol))
			}
			if o.Poison && len(res.PoisonFiles) == 0 {
				res.Failures = append(res.Failures, "poison was injected but nothing was quarantined")
			}
			p.Close()
		}
	}

	if ownDir {
		if res.OK() {
			os.RemoveAll(dir)
		} else {
			res.KeepArtifact = true
		}
	}
	return res, nil
}

// build constructs a durable pipeline, converting a simulated crash during
// recovery (CrashMidReplay and friends) into a crash result.
func build(cfg core.PipelineConfig) (p *core.Pipeline, crash *durable.Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := durable.AsCrash(r); ok {
				crash = &c
				return
			}
			panic(r)
		}
	}()
	p, err = core.NewPipeline(cfg)
	return p, nil, err
}

// drive submits stream batches from the cursor onward, converting a
// simulated crash anywhere in the durable protocol into a crash result.
func drive(p *core.Pipeline, stream crosscheck.Stream, cursor uint64) (crash *durable.Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := durable.AsCrash(r); ok {
				crash = &c
				return
			}
			panic(r)
		}
	}()
	for i := int(cursor); i < len(stream); i++ {
		if _, err := p.ProcessMixed(core.MixedBatch{Adds: stream[i].Adds, Dels: stream[i].Dels}); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// safeClose closes the pipeline, converting a crash during the final
// checkpoint into a crash result and surfacing Close's own error (an
// injected disk fault on the final checkpoint arrives this way).
func safeClose(p *core.Pipeline) (crash *durable.Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := durable.AsCrash(r); ok {
				crash = &c
				err = nil
				return
			}
			panic(r)
		}
	}()
	return nil, p.Close()
}

// verifyRecovered diffs a freshly recovered pipeline against the
// sequential oracle's replay of the durable prefix (minus poisoned
// batches). Failures name the recovered sequence so a bad recovery is
// attributable to the generation that produced it.
func verifyRecovered(p *core.Pipeline, stream crosscheck.Stream, poisonSeq map[uint64]bool, o Options, copts compute.Options) []string {
	seq := p.DurableSeq()
	if seq > uint64(len(stream)) {
		return []string{fmt.Sprintf("recovery at seq %d: beyond the %d-batch stream", seq, len(stream))}
	}
	orc := graph.NewOracle(o.Directed)
	for i := 0; i < int(seq); i++ {
		if poisonSeq[uint64(i)+1] {
			continue
		}
		orc.Update(stream[i].Adds)
		orc.Delete(stream[i].Dels)
	}
	var fails []string
	for _, d := range ds.DiffOracle(p.Graph(), orc, 8) {
		fails = append(fails, fmt.Sprintf("recovery at seq %d: topology: %s", seq, d))
	}
	want := compute.MustReference(o.Alg, orc, copts)
	tol := compute.Tolerance(o.Alg)
	if v := compute.DiffValues(p.Values(), want, tol); v >= 0 {
		fails = append(fails, fmt.Sprintf("recovery at seq %d: values: vertex %d diverges (%s, tol %g)", seq, v, o.Alg, tol))
	}
	return fails
}
