// Command benchmark is the end-to-end benchmark of the assembled streaming
// pipeline: four workloads, each driven through core's public entry points
// (the untraced pass, which yields the end-to-end metrics) and, with
// -trace 1, replayed layer by layer under spans (which yields the per-layer
// metrics). README.md explains the workloads and every metric.
//
//	bash benchmark/run.sh --workload serve-reads --seed 42 --seconds 8 --trace 0
//	bash benchmark/run.sh -seed 42 -out results.json          # all workloads, both passes
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	_ "sagabench/internal/ds/all"
)

// environment is recorded in every results file: numbers from different
// boxes or toolchains must not be compared.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Env     environment `json:"env"`
	Scale   string      `json:"scale"`
	Seconds int         `json:"seconds"`
	Results []result    `json:"results"`
}

func main() { os.Exit(run()) }

// run returns the exit code: 0, 1 for a wrong output or a regression, 2 for
// a run that could not be completed.
func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed         = flag.Int64("seed", 42, "stream seed; the same seed gives the same batches")
		seconds      = flag.Int("seconds", 12, "length of the timed section; fixes the batch count")
		trace        = flag.String("trace", "both", "0: untraced pass, end-to-end metrics; 1: also the layer replay, per-layer metrics; both: one run of each")
		scaleName    = flag.String("scale", "full", "full (2^18 vertices) or tiny (2^12, smoke tests)")
		runs         = flag.Int("runs", 1, "repeat each run this many times on seeds seed, seed+1, ...")
		out          = flag.String("out", "", "write every result and the environment to this JSON file")
		compare      = flag.Bool("compare", false, "compare two -out files (a.json b.json) instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two results files"))
		}
		breach, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if breach {
			return 1
		}
		return 0
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	sc, ok := scales[*scaleName]
	if !ok {
		return fail(fmt.Errorf("unknown scale %q", *scaleName))
	}
	selected := workloads
	if *workloadName != "all" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			return fail(err)
		}
		selected = []*workload{w}
	}
	var traces []int
	switch *trace {
	case "0":
		traces = []int{0}
	case "1":
		traces = []int{1}
	case "both":
		traces = []int{0, 1}
	default:
		return fail(fmt.Errorf("-trace takes 0, 1 or both"))
	}
	// Durability directories and traces go where run.sh keeps the build:
	// inside the checkout, ignored by git.
	err := os.MkdirAll(scratchRoot, 0o755)
	var workDir string
	if err == nil {
		workDir, err = os.MkdirTemp(scratchRoot, "run-")
	}
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(workDir)

	file := resultsFile{Env: currentEnvironment(), Scale: *scaleName, Seconds: *seconds}
	allCorrect := true
	for _, w := range selected {
		for _, tr := range traces {
			for r := 0; r < *runs; r++ {
				opt := options{scale: sc, seed: *seed + int64(r), seconds: *seconds, setups: 3, workDir: workDir, idle: 5 * time.Second}
				res, err := runWorkload(w, opt, tr)
				if err != nil {
					return fail(fmt.Errorf("%s: %w", w.name, err))
				}
				allCorrect = allCorrect && res.Correct
				file.Results = append(file.Results, *res)
				printResult(res)
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if !allCorrect {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

const scratchRoot = ".bench_build"

// runWorkload runs one workload once. trace 0 is the untraced pipeline
// pass and reports the end-to-end metrics; trace 1 runs the same pass with
// a single set-up, then the layer replay, and reports the per-layer metrics.
func runWorkload(w *workload, opt options, trace int) (*result, error) {
	if trace == 1 {
		opt.setups = 1
	}
	st, err := runPipeline(w, opt)
	if err != nil {
		return nil, err
	}
	res := &result{
		driverLine: driverLine{Attempted: st.attempted, Failed: st.failed},
		Workload:   w.name, Seed: opt.seed, Trace: trace,
		StreamFNV: fmt.Sprintf("%016x", st.streamFNV),
		Samples:   map[string]int{"batches": len(st.wallMs), "reader_sessions": st.reader.sessions},
		Problems:  st.problems,
	}
	if trace == 0 {
		res.Metrics, err = named(endToEnd, endToEndMetrics(st))
	} else {
		var rs *replayStats
		if rs, err = runReplay(w, opt); err != nil {
			return nil, err
		}
		d := st.final.diff(rs.final, w.alg)
		if rs.streamFNV != st.streamFNV {
			d = "the replay was fed a different stream"
		}
		matches := d == ""
		res.ReplayMatches = &matches
		if !matches {
			res.Problems = append(res.Problems, "replay: "+d)
		}
		res.Metrics, err = named(perLayer, perLayerMetrics(st, rs))
	}
	if err != nil {
		return nil, err
	}
	// A wrong output fails the whole workload, whatever its operations did.
	res.Correct = len(res.Problems) == 0
	if !res.Correct {
		res.Failed = res.Attempted
	}
	return res, nil
}

// printResult lists every metric by name, unit and direction, then the
// contract's JSON object as the last line.
func printResult(res *result) {
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	fmt.Printf("# workload=%s seed=%d trace=%d stream_fnv=%s batches=%d reader_sessions=%d\n",
		res.Workload, res.Seed, res.Trace, res.StreamFNV, res.Samples["batches"], res.Samples["reader_sessions"])
	names := make([]string, 0, len(defs))
	better := make(map[string]string, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
		better[d.Name] = d.Better
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("%-32s %16.6g %-10s (%s is better)\n", n, v.Value, v.Unit, better[n])
	}
	if res.ReplayMatches != nil {
		fmt.Printf("replay_matches=%v\n", *res.ReplayMatches)
	}
	for _, p := range res.Problems {
		fmt.Println("PROBLEM:", p)
	}
	// Marshalling a struct of bools, ints and finite floats cannot fail.
	line, _ := json.Marshal(res.driverLine)
	fmt.Println(string(line))
}
