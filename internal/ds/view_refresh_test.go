package ds_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/epoch"
	"sagabench/internal/graph"
)

// refreshCase is one configuration of the refresh property: a structure,
// a mirror shape, and a stream with vertex growth.
type refreshCase struct {
	ds string
	viewShape
	seed    int64
	batches int
}

// viewShape is a mirror shape: a directed view of both directions, of the
// out runs only, or of the in runs plus out-degrees; or an undirected one.
type viewShape struct{ directed, outOnly, inOnly bool }

var viewShapes = []viewShape{{true, false, false}, {true, true, false}, {true, false, true}, {false, false, false}}

func (s viewShape) String() string {
	if s.inOnly {
		return fmt.Sprintf("directed=%v/inOnly=true", s.directed)
	}
	return fmt.Sprintf("directed=%v/outOnly=%v", s.directed, s.outOnly)
}

// newView builds a view over g in this shape.
func (s viewShape) newView(t testing.TB, g ds.Graph, threads int) *ds.ComputeView {
	t.Helper()
	v, ok := ds.NewComputeView(g, threads)
	if !ok {
		t.Fatal("NewComputeView not supported")
	}
	if s.outOnly {
		v.MirrorOutOnly()
	}
	if s.inOnly {
		v.MirrorInOnly()
	}
	return v
}

// arenaCap is the capacity of the adjacency array a shape's compactions
// rewrite first.
func arenaCap(c *graph.CSR) int {
	if c.HasOut() {
		return cap(c.OutAdj)
	}
	return cap(c.InIDs)
}

// idsOf is the IDs of a run, what an in-only mirror keeps of it.
func idsOf(run []graph.Neighbor) []graph.NodeID {
	ids := make([]graph.NodeID, len(run))
	for i, nb := range run {
		ids[i] = nb.ID
	}
	return ids
}

// refreshOutcome counts what a run exercised, so the table test can
// demand that the stream really crossed the transitions it is about.
type refreshOutcome struct {
	relocations, compactions, arenaGrowths int
	// extensions counts the refreshes after which a hub's run had grown
	// where it was: it starts at the entry it started at before.
	extensions int
}

// hubRuns returns the runs of extendingStream's hubs that a mirror of
// whole neighbors holds: outHub's out-run and inHub's in-run (an
// undirected mirror's out-runs hold both).
func hubRuns(c *graph.CSR) [2][]graph.Neighbor {
	var runs [2][]graph.Neighbor
	if !c.HasOut() || int(inHub) >= c.NumNodes() {
		return runs
	}
	runs[0], runs[1] = c.Out(outHub), c.Out(inHub)
	if c.HasIn() {
		runs[1] = c.In(inHub)
	}
	return runs
}

// extended reports whether run, which was `was` before a refresh, starts
// at the same entry and is longer.
func extended(was, run []graph.Neighbor) bool {
	return len(was) > 0 && len(run) > len(was) && &run[0] == &was[0]
}

// growingStream is viewStream with a vertex space that grows by `growth`
// IDs per batch from `nodes`, after one preload batch that makes the graph
// large against the later batches: those touch about a tenth of the runs,
// so most refreshes relocate and the dead space builds up to a compaction
// over several of them.
func growingStream(seed int64, batches, nodes, growth int) []viewStep {
	rng := rand.New(rand.NewSource(seed))
	var live []graph.Edge
	steps := make([]viewStep, batches)
	for b := range steps {
		size, span := nodes/16, nodes+b*growth
		if b == 0 {
			size = 12 * nodes
		}
		var adds, dels graph.Batch
		for i := 0; i < size; i++ {
			var e graph.Edge
			if len(live) > 0 && rng.Intn(3) == 0 {
				e = live[rng.Intn(len(live))] // overwrite
			} else {
				e = graph.Edge{Src: graph.NodeID(rng.Intn(span)), Dst: graph.NodeID(rng.Intn(span))}
			}
			lo, hi := min(e.Src, e.Dst), max(e.Src, e.Dst)
			e.Weight = graph.Weight(1 + (int(lo)+7*int(hi)+13*b)%9)
			adds = append(adds, e)
			live = append(live, e)
		}
		for i := 0; b > 0 && i < size/4 && len(live) > 0; i++ {
			k := rng.Intn(len(live))
			dels = append(dels, live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		steps[b] = viewStep{adds: adds, dels: dels}
	}
	return steps
}

// The hubs of extendingStream: the first gains out-edges, the second
// in-edges, hubStart of each in the first batch and hubGrowth per
// insert-only batch after it.
const (
	outHub, inHub       graph.NodeID = 1, 2
	hubStart, hubGrowth              = 80, 4
)

// extendingStream is growingStream with every odd batch made insert-only:
// its deletes are dropped, and it gains hubGrowth out-edges of outHub and
// in-edges of inHub, to neighbours the hubs do not have yet while fewer
// than `nodes` were added, and a repeat of its first edge. The first batch
// gives each hub hubStart of them. Its re-inserts of
// live edges carry new weights, as growingStream's do. The hubs' runs only
// grow, through hybrid's inline, array and hash tiers, so over a long
// stream they are the runs a refresh may extend in place; the re-inserts
// and the even batches' deletes are the rewrites that must not be.
func extendingStream(seed int64, batches, nodes, growth int) []viewStep {
	steps := growingStream(seed, batches, nodes, growth)
	rng := rand.New(rand.NewSource(seed ^ 0x5EED))
	k := 0 // the hubs' next neighbour: k·97 mod nodes walks every vertex once
	grow := func(adds graph.Batch, edges int) graph.Batch {
		for ; edges > 0; edges-- {
			w, nb := graph.Weight(1+rng.Intn(9)), graph.NodeID(k*97%nodes)
			adds = append(adds, graph.Edge{Src: outHub, Dst: nb, Weight: w}, graph.Edge{Src: nb, Dst: inHub, Weight: w})
			k++
		}
		return adds
	}
	steps[0].adds = grow(steps[0].adds, hubStart)
	for b := 1; b < len(steps); b += 2 {
		adds := grow(steps[b].adds, hubGrowth)
		steps[b] = viewStep{adds: append(adds, adds[0])}
	}
	return steps
}

// fingerprintOf hashes a CSR the way a published epoch is hashed.
func fingerprintOf(c *graph.CSR) uint64 {
	return (&epoch.Snapshot{CSR: *c}).Fingerprint()
}

// checkRefresh drives one case and asserts, after every refresh, that
// each run of the mirror equals the store's own FlatFill order (an in-only
// mirror's ID runs the IDs in that order, its out-degrees the store's
// degrees), that the mirror reads run for
// run like a from-scratch build, that both fingerprint alike whatever
// layout the mirror is in (relocated or just compacted), and that the
// epoch invariants hold (for an in-only mirror, which no epoch publishes:
// that the runs and the degrees each sum to the edge count).
func checkRefresh(t testing.TB, c refreshCase) refreshOutcome {
	g := ds.MustNew(c.ds, ds.Config{Directed: c.directed, Threads: 2})
	newView := func() *ds.ComputeView { return c.newView(t, g, 2) }
	view := newView()
	two := g.(*ds.TwoCopy)
	del, canDelete := g.(ds.Deleter)
	var out refreshOutcome
	var buf []graph.Neighbor
	lastCap := 0
	var hubs [2][]graph.Neighbor
	for bi, step := range extendingStream(c.seed, c.batches, 320, 3) {
		g.Update(step.adds)
		dels := step.dels
		if !canDelete {
			dels = nil
		} else if len(dels) > 0 {
			if err := del.Delete(dels); err != nil {
				t.Fatalf("batch %d: delete: %v", bi, err)
			}
		}
		st := view.Refresh(step.adds, dels)
		csr := view.FlatCSR()
		switch {
		case bi == 0:
			if !st.Full {
				t.Fatal("first refresh did not report a full build")
			}
		case st.Full:
			out.compactions++
			if arenaCap(csr) > lastCap {
				out.arenaGrowths++
			}
		default:
			out.relocations++
		}
		lastCap = arenaCap(csr)
		runs := hubRuns(csr)
		if extended(hubs[0], runs[0]) || extended(hubs[1], runs[1]) {
			out.extensions++
		}
		hubs = runs

		if n := g.NumNodes(); csr.NumNodes() != n {
			t.Fatalf("batch %d: mirror covers %d vertices, structure %d", bi, csr.NumNodes(), n)
		}
		for v := 0; v < csr.NumNodes(); v++ {
			id := graph.NodeID(v)
			if !csr.HasOut() {
				if got, want := csr.OutDegree(id), two.OutStore().Degree(id); got != want {
					t.Fatalf("batch %d: out-degree(%d) = %d, structure %d", bi, v, got, want)
				}
			} else {
				buf = append(buf[:0], make([]graph.Neighbor, two.OutStore().Degree(id))...)
				two.OutStore().FlatFill(id, buf)
				if !slices.Equal(csr.Out(id), buf) {
					t.Fatalf("batch %d: out(%d) = %v, FlatFill order %v", bi, v, csr.Out(id), buf)
				}
			}
			if !csr.HasIn() {
				continue
			}
			buf = append(buf[:0], make([]graph.Neighbor, two.InStore().Degree(id))...)
			two.InStore().FlatFill(id, buf)
			if !csr.HasOut() {
				if got := csr.InIDRun(id); !slices.Equal(got, idsOf(buf)) {
					t.Fatalf("batch %d: in(%d) = %v, FlatFill order %v", bi, v, got, buf)
				}
			} else if !slices.Equal(csr.In(id), buf) {
				t.Fatalf("batch %d: in(%d) = %v, FlatFill order %v", bi, v, csr.In(id), buf)
			}
		}
		fresh := newView()
		fresh.Refresh(nil, nil)
		if err := sameRuns(csr, fresh.FlatCSR()); err != nil {
			t.Fatalf("batch %d (full=%v): mirror differs from a from-scratch build: %v", bi, st.Full, err)
		}
		if !csr.HasOut() {
			if err := inOnlyConsistent(csr); err != nil {
				t.Fatalf("batch %d (full=%v): %v", bi, st.Full, err)
			}
			continue
		}
		if got, want := fingerprintOf(csr), fingerprintOf(fresh.FlatCSR()); got != want {
			t.Fatalf("batch %d (full=%v): fingerprint %#x, from-scratch build %#x", bi, st.Full, got, want)
		}
		if err := (&epoch.Snapshot{CSR: *csr}).CheckConsistent(); err != nil {
			t.Fatalf("batch %d (full=%v): %v", bi, st.Full, err)
		}
	}
	return out
}

// inOnlyConsistent checks an in-only CSR's counts: its in-runs and its
// out-degrees each sum to the edge count.
func inOnlyConsistent(c *graph.CSR) error {
	runs, degs := 0, 0
	for v := 0; v < c.NumNodes(); v++ {
		runs += c.InDegree(graph.NodeID(v))
		degs += c.OutDegree(graph.NodeID(v))
	}
	if runs != c.NumEdges() || degs != c.NumEdges() {
		return fmt.Errorf("in-runs hold %d records and out-degrees sum to %d, CSR reports %d edges", runs, degs, c.NumEdges())
	}
	return nil
}

// TestViewRefreshProperty runs the refresh property over every structure
// and every view shape, on a stream long enough to cross at least three
// compactions, an arena growth, and (except for stores that dirty whole
// chunks) relocations.
func TestViewRefreshProperty(t *testing.T) {
	for _, name := range ds.Names() {
		for _, shape := range viewShapes {
			c := refreshCase{ds: name, viewShape: shape, seed: 0xF00D + int64(len(name)), batches: 48}
			t.Run(name+"/"+shape.String(), func(t *testing.T) {
				t.Parallel()
				out := checkRefresh(t, c)
				t.Logf("%d relocations, %d compactions, %d arena growths, %d hub extensions", out.relocations, out.compactions, out.arenaGrowths, out.extensions)
				if out.compactions < 3 || out.arenaGrowths < 1 {
					t.Fatalf("stream crossed %d compactions and %d arena growths, want >= 3 and >= 1", out.compactions, out.arenaGrowths)
				}
				probe := ds.MustNew(name, ds.Config{Directed: c.directed})
				_, expands := probe.(*ds.TwoCopy).OutStore().(ds.DirtyExpander)
				if !expands && out.relocations < 3 {
					t.Fatalf("stream crossed %d relocating refreshes, want >= 3", out.relocations)
				}
				// A store that reports its rewrites has its growing hubs
				// extended in place in every mirror of whole neighbors.
				_, reports := probe.(*ds.TwoCopy).OutStore().(ds.RewriteReporter)
				if reports && !shape.inOnly && out.extensions == 0 {
					t.Fatal("no refresh extended a hub's run in place")
				}
			})
		}
	}
}

// TestViewsShareRewriteReports refreshes two views over one store after
// every batch, so each takes only every other rewrite report: neither may
// extend a run in place on a report the other took part of, and both must
// read like the store after every refresh.
func TestViewsShareRewriteReports(t *testing.T) {
	for _, name := range []string{"adjshared", "adjchunked", "hybrid"} {
		g := ds.MustNew(name, ds.Config{Directed: true, Threads: 2})
		views := [2]*ds.ComputeView{}
		for i := range views {
			views[i], _ = ds.NewComputeView(g, 2)
		}
		for bi, step := range extendingStream(0xAB, 24, 320, 0) {
			g.Update(step.adds)
			if err := g.(ds.Deleter).Delete(step.dels); err != nil {
				t.Fatal(err)
			}
			fresh, _ := ds.NewComputeView(g, 1)
			fresh.Refresh(nil, nil)
			for i, v := range views {
				v.Refresh(step.adds, step.dels)
				if err := sameRuns(v.FlatCSR(), fresh.FlatCSR()); err != nil {
					t.Fatalf("%s batch %d view %d: %v", name, bi, i, err)
				}
			}
		}
	}
}

// FuzzViewRefresh lets the fuzzer pick the structure, the mirror shape and
// the stream seed of the refresh property.
func FuzzViewRefresh(f *testing.F) {
	for i := range ds.Names() {
		f.Add(int64(i), uint8(i), uint8(i%len(viewShapes)))
	}
	names := ds.Names()
	f.Fuzz(func(t *testing.T, seed int64, pick, shape uint8) {
		checkRefresh(t, refreshCase{ds: names[int(pick)%len(names)], viewShape: viewShapes[int(shape)%len(viewShapes)], seed: seed, batches: 16})
	})
}

// rewriteAllStream re-adds every edge of a small fixed graph with new
// weights each batch: no growth, every run dirty, so every refresh compacts
// and the mirror ping-pongs between two arenas.
func rewriteAllStream(batches, nodes int) []viewStep {
	steps := make([]viewStep, batches)
	for b := range steps {
		for src := 0; src < nodes; src++ {
			for k := 1; k <= 3; k++ {
				steps[b].adds = append(steps[b].adds, graph.Edge{
					Src:    graph.NodeID(src),
					Dst:    graph.NodeID((src + k) % nodes),
					Weight: graph.Weight(1 + (src+k+b)%7),
				})
			}
		}
	}
	return steps
}

// TestViewPinnedAcrossCompactions holds a published snapshot pinned while
// the writer refreshes through at least two compactions, under the
// pipeline's gate (ReclaimSpare, then DropSpares when it reports a pin).
// A reader goroutine fingerprints the pinned snapshot the whole time; run
// under -race this is the check that nothing a published epoch can reach
// is written again — neither its index buffer nor its arena, whether later
// refreshes mostly relocate or compact back to back and refill the arena
// the previous compaction retired.
func TestViewPinnedAcrossCompactions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps []viewStep
		// refills: the stream must have refilled a retired arena at least
		// once, or the pin would not have been at risk.
		refills bool
		// extends: a refresh must have extended a hub's run in place while
		// the pinned epoch read the same run, in the same arena.
		extends bool
	}{
		// No vertex growth: a growing index is reallocated now and then, which
		// would spare the pinned buffer by accident rather than by the gate.
		{"relocating", growingStream(0xBEEF, 40, 320, 0), false, false},
		{"compacting", rewriteAllStream(24, 64), true, false},
		// The hubs' runs grow in every other batch while the pin is held,
		// so a refresh may write the entries past a run the pinned copy
		// reads, in the same arena.
		{"extending", extendingStream(0xCAFE, 40, 320, 0), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := ds.MustNew("hybrid", ds.Config{Directed: true, Threads: 2})
			view, _ := ds.NewComputeView(g, 2)
			em := epoch.NewManager(true)

			var pinned *epoch.Snapshot
			var want uint64
			stop := make(chan struct{})
			var reader sync.WaitGroup
			compactions, refills, extensions := 0, 0, 0
			// Each direction's arena at the last two refreshes. A direction
			// compacted when its arena is not the one the refresh before
			// left: relocating and extending write into the arena they find.
			var arenas [2][2]*graph.Neighbor
			for bi, step := range tc.steps {
				g.Update(step.adds)
				if err := g.(ds.Deleter).Delete(step.dels); err != nil {
					t.Fatal(err)
				}
				if em.ReclaimSpare() {
					view.DropSpares()
				}
				st := view.Refresh(step.adds, step.dels)
				em.Publish(&epoch.Snapshot{Batch: bi, CSR: *view.FlatCSR(), Directed: true})
				if pinned != nil && st.Full {
					compactions++
				}
				csr := view.FlatCSR()
				for dir, arena := range [2]*graph.Neighbor{&csr.OutAdj[0], &csr.InAdj[0]} {
					if arena == arenas[1][dir] {
						continue
					}
					if arena == arenas[0][dir] {
						refills++
					}
					if pinned != nil && arena == [2]*graph.Neighbor{&pinned.CSR.OutAdj[0], &pinned.CSR.InAdj[0]}[dir] {
						t.Fatalf("batch %d compacted into the pinned epoch's arena", bi)
					}
				}
				arenas[0], arenas[1] = arenas[1], [2]*graph.Neighbor{&csr.OutAdj[0], &csr.InAdj[0]}
				if pinned != nil {
					was, now := hubRuns(&pinned.CSR), hubRuns(csr)
					if extended(was[0], now[0]) || extended(was[1], now[1]) {
						extensions++
					}
				}
				if bi == 4 {
					pinned = em.Pin()
					want = pinned.Fingerprint()
					reader.Add(1)
					go func() {
						defer reader.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							if got := pinned.Fingerprint(); got != want {
								t.Errorf("pinned epoch %d fingerprints %#x, was %#x at pin time", pinned.Epoch, got, want)
								return
							}
						}
					}()
				}
			}
			close(stop)
			reader.Wait()
			if compactions < 2 {
				t.Fatalf("writer crossed %d compactions while the snapshot was pinned, want >= 2", compactions)
			}
			if tc.refills && refills == 0 {
				t.Fatal("no compaction refilled a retired arena; the pinned arena was never at risk")
			}
			if tc.extends && extensions == 0 {
				t.Fatal("no refresh extended a hub's run past the pinned epoch's copy of it")
			}
			if err := pinned.CheckConsistent(); err != nil {
				t.Fatal(err)
			}
			if got := pinned.Fingerprint(); got != want {
				t.Fatalf("pinned epoch fingerprints %#x after the stream, was %#x at pin time", got, want)
			}
			em.Release(pinned)
			if st := em.Stats(); st.Dropped == 0 {
				t.Fatalf("the gate never reported the pin (stats %+v); the test did not exercise DropSpares", st)
			}
		})
	}
}

// TestViewRefreshSteadyStateAllocs asserts that a relocating refresh
// allocates nothing once the arena has capacity and both index buffers
// have been through a refresh: the dirty runs go to the arena's tail, the
// scratch lists are reused, and an in-only mirror's degrees are rewritten
// in place.
func TestViewRefreshSteadyStateAllocs(t *testing.T) {
	for _, shape := range []viewShape{{directed: true}, {directed: true, inOnly: true}} {
		g := ds.MustNew("hybrid", ds.Config{Directed: true, Threads: 1})
		view := shape.newView(t, g, 1)
		steps := growingStream(7, 1, 2000, 0)
		g.Update(steps[0].adds)
		view.Refresh(steps[0].adds, nil)
		// Re-reading a handful of runs per refresh leaves room for hundreds
		// of relocations in the slack the first build allocated.
		touch := steps[0].adds[:8]
		for i := 0; i < 3; i++ {
			view.Refresh(touch, nil)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if view.Refresh(touch, nil).Full {
				t.Fatalf("%v: refresh compacted inside the measured window", shape)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: steady-state relocating refresh allocates %.1f times, want 0", shape, allocs)
		}
	}
}

// TestViewFootprint checks the view's accounting by owner on one graph:
// the first build's dirty lists, |V| entries each, are given back once
// refreshes list a handful of vertices, and an in-only mirror holds an ID
// arena (4 B a record) and the in index plus one 32-bit degree per vertex
// where the full mirror holds both directions of whole neighbors. The
// full mirror's in arena is what it holds beyond an out-only mirror of the
// same stream; the in-only arena takes at most half of that.
func TestViewFootprint(t *testing.T) {
	const nodes = 20000
	steps := growingStream(11, 1, nodes, 0)
	touch := steps[0].adds[:8]
	fps := map[viewShape]ds.ViewFootprint{}
	full, outOnly, inOnly := viewShape{directed: true}, viewShape{directed: true, outOnly: true}, viewShape{directed: true, inOnly: true}
	for _, shape := range []viewShape{full, outOnly, inOnly} {
		g := ds.MustNew("adjshared", ds.Config{Directed: true, Threads: 1})
		view := shape.newView(t, g, 1)
		g.Update(steps[0].adds)
		view.Refresh(steps[0].adds, nil)
		dirs, record := int64(2), int64(8)
		if shape != full {
			dirs = 1
		}
		if shape.inOnly {
			record = 4
		}
		n, edges := int64(g.NumNodes()), int64(g.NumEdges())
		if f := view.Footprint(); f.Dirty < dirs*n*4 {
			t.Fatalf("%v: first build's dirty lists hold %d bytes, want >= %d (|V| ids per direction)", shape, f.Dirty, dirs*n*4)
		}
		// The two lists swap every refresh, and the first build's is re-made
		// once a later list has replaced it as the previous one.
		for i := 0; i < 3; i++ {
			view.Refresh(touch, nil)
		}
		f := view.Footprint()
		if limit := dirs * (n/8 + 2*4096*4); f.Dirty > limit {
			t.Fatalf("%v: dirty bitmap and lists hold %d bytes after small refreshes, want <= %d", shape, f.Dirty, limit)
		}
		if f.ArenaLive != dirs*edges*record || f.Arena < f.ArenaLive {
			t.Fatalf("%v: arena %d bytes, %d live; want %d live", shape, f.Arena, f.ArenaLive, dirs*edges*record)
		}
		if shape.inOnly && f.Degrees < n*4 || !shape.inOnly && f.Degrees != 0 {
			t.Fatalf("%v: degree vector %d bytes for %d vertices", shape, f.Degrees, n)
		}
		fps[shape] = f
	}
	fullIn := fps[full].Arena - fps[outOnly].Arena
	if in := fps[inOnly]; 2*in.Index != fps[full].Index || 2*in.Arena > fullIn {
		t.Fatalf("in-only index %d / arena %d bytes against the full mirror's index %d / in arena %d: want half the index and at most half the in arena",
			in.Index, in.Arena, fps[full].Index, fullIn)
	}
}
