package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"sagabench/internal/core"
	"sagabench/internal/graph"
)

func tinyOptions(t *testing.T, seed int64) options {
	t.Helper()
	return options{scale: scales["tiny"], seed: seed, seconds: 1, setups: 2, workDir: t.TempDir(), idle: 2 * time.Second}
}

// manifest mirrors BENCHMARK.json, the declaration the driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the tables in
// metrics.go / workloads.go from drifting apart.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", m.PerLayer, perLayer)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	if m.RunSeconds < 1 || len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}

// TestSmoke runs every workload at tiny scale through both passes and
// checks the contract on what comes out.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res, err := runWorkload(w, tinyOptions(t, 42), trace)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d problems=%v", w.name, trace, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, %d declared", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s missing or in unit %q", w.name, trace, d.Name, v.Unit)
				}
			}
			if trace == 0 {
				for n, v := range res.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, n, v.Value)
					}
				}
				continue
			}
			if res.ReplayMatches == nil || !*res.ReplayMatches {
				t.Errorf("%s: the layer replay ended in a different state than the pipeline", w.name)
			}
			if res.Samples["batches"] != w.timedBatches(1) {
				t.Errorf("%s: %d latency samples for %d timed batches", w.name, res.Samples["batches"], w.timedBatches(1))
			}
			if share := res.Metrics["ds.share"].Value + res.Metrics["ds.view_share"].Value + res.Metrics["compute.share"].Value +
				res.Metrics["epoch.share"].Value + res.Metrics["durable.share"].Value; share <= 0.5 || share > 1 {
				t.Errorf("%s: layer shares sum to %v of the replay's batch wall", w.name, share)
			}
		}
	}
}

// TestSeedDeterminism: the seed fixes the stream and every count that
// follows from it; another seed gives another stream.
func TestSeedDeterminism(t *testing.T) {
	counts := []string{"durable.disk_bytes_per_update", "durable.checkpoints", "ds.view_full_rebuilds", "epoch.published"}
	for _, name := range []string{"update-churn", "small-durable"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(seed int64) *result {
			res, err := runWorkload(w, tinyOptions(t, seed), 1)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b, c := run(7), run(7), run(8)
		if a.StreamFNV != b.StreamFNV {
			t.Errorf("%s: seed 7 hashed to %s, then to %s", name, a.StreamFNV, b.StreamFNV)
		}
		if a.StreamFNV == c.StreamFNV {
			t.Errorf("%s: seeds 7 and 8 produced the same stream", name)
		}
		for _, m := range counts {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s = %v, then %v on the same seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

// TestFailureAccounting plants every way a batch or a read can fail in an
// open-loop run and checks each lands in failed, over the right attempted.
func TestFailureAccounting(t *testing.T) {
	w := *workloads[3]
	w.shed, w.maxQueue, w.perSecond = true, 1, 400
	opt := tinyOptions(t, 42)
	opt.idle = 200 * time.Millisecond
	n := w.timedBatches(opt.seconds)
	w.tamper = func(i int, mb *core.MixedBatch, sup *core.Supervisor) {
		switch i {
		case 0: // beyond MaxNodeID: validation quarantines it, no epoch carries it (batch 0 meets an empty queue, so it is never shed)
			mb.Adds[0].Dst = graph.NodeID(opt.scale.nodes + 7)
		case 50: // stall the generator: the overdue batches then arrive in a burst and overflow the queue
			time.Sleep(100 * time.Millisecond)
		case n - 10: // from here on ingest is refused and reads fail
			sup.Health().To(core.Failed, "planted by the test")
		}
	}
	st, err := runOpen(&w, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep := st.report
	if rep.ShedBatches == 0 || rep.Refused < 10 || len(rep.Quarantined) != 1 {
		t.Fatalf("the plants did not take: shed %d, refused %d, quarantined %d", rep.ShedBatches, rep.Refused, len(rep.Quarantined))
	}
	misses := st.reader.failed
	if misses == 0 {
		t.Error("no read failed although the supervisor was failed while the watcher polled")
	}
	if want := n + st.reader.sessions; st.attempted != want {
		t.Errorf("attempted = %d, want %d batches + %d reads", st.attempted, n, st.reader.sessions)
	}
	// A batch published in the half millisecond between the watcher's last
	// good poll and the planted failure is applied but never seen by a
	// reader: it counts as failed too, without a counter in the report.
	const unseen = 2
	lost := int(rep.ShedBatches) + int(rep.Refused) + len(rep.Quarantined)
	if st.failed < lost+misses || st.failed > lost+misses+unseen {
		t.Errorf("failed = %d, want %d shed + %d refused + %d quarantined + %d missed reads = %d (+ at most %d unseen)",
			st.failed, rep.ShedBatches, rep.Refused, len(rep.Quarantined), misses, lost+misses, unseen)
	}
	if got := len(st.wallMs) + st.failed - misses; got != n {
		t.Errorf("%d latencies + %d failed batches, want %d batches in all", len(st.wallMs), st.failed-misses, n)
	}
}

func TestCompare(t *testing.T) {
	write := func(name string, batchMs ...float64) string {
		f := resultsFile{Scale: "full", Seconds: 8}
		for i, v := range batchMs {
			f.Results = append(f.Results, result{Workload: "update-churn", Seed: int64(i), driverLine: driverLine{Correct: true, Attempted: 1,
				Metrics: map[string]value{"batch_p50_ms": {v, "ms"}, "edges_per_s": {1e6 / v, "updates/s"}}}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 101, 99, 100, 102)
	for _, tc := range []struct {
		name    string
		other   string
		verdict string
		breach  bool
	}{
		{"same", write("b.json", 101, 100, 100, 99, 103), " ok ", false},
		{"slower", write("c.json", 150, 151, 149, 150, 152), " regressed ", true},
		{"noisy", write("d.json", 60, 100, 140, 180, 220), " unresolved ", false},
	} {
		var out bytes.Buffer
		breach, err := compareFiles(&out, base, tc.other)
		if err != nil {
			t.Fatal(err)
		}
		if breach != tc.breach || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: breach=%v, output:\n%s", tc.name, breach, out.String())
		}
	}
}

// TestSpreadIsPythonsQuantiles pins spread to statistics.quantiles(n=4):
// for 1..10 the quartiles are 2.75 and 8.25, the median 5.5.
func TestSpreadIsPythonsQuantiles(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestLiveTable checks the open-addressing table against a Go map under
// random puts and removes — backward-shift deletion is easy to get wrong.
func TestLiveTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := newLiveTable(512)
	ref := map[[2]graph.NodeID]liveVal{}
	for step := 0; step < 200_000; step++ {
		src, dst := graph.NodeID(rng.Intn(40)), graph.NodeID(rng.Intn(40))
		if len(ref) < 500 && rng.Intn(2) == 0 {
			v := liveVal{graph.Weight(rng.Intn(64) + 1), int32(step)}
			tab.put(src, dst, v.w, v.born)
			ref[[2]graph.NodeID{src, dst}] = v
		} else {
			tab.remove(src, dst)
			delete(ref, [2]graph.NodeID{src, dst})
		}
		if step%1000 != 0 {
			continue
		}
		if len(tab.edges()) != len(ref) {
			t.Fatalf("step %d: table holds %d edges, map %d", step, len(tab.edges()), len(ref))
		}
		for k, want := range ref {
			if w, born, ok := tab.get(k[0], k[1]); !ok || w != want.w || born != want.born {
				t.Fatalf("step %d: get(%v) = %v %v %v, want %+v", step, k, w, born, ok, want)
			}
		}
	}
}
