package archsim

import (
	"fmt"
	"slices"

	"sagabench/internal/graph"
)

// Replayer reconstructs the memory-access stream of a SAGA-Bench pipeline
// on the simulated machine. It keeps shadow layouts for the out- and
// in-neighbor copies of the chosen data structure and replays, per batch:
//
//   - the update phase: ingesting the batch into both copies with the
//     structure's own multithreading style (shared sharding or chunk
//     ownership), and
//   - the compute phase: a pull-style propagation pass seeded at the
//     batch's affected vertices (INC) or sweeping all vertices (FS),
//     reading vertex properties and traversing in-neighbor storage — the
//     access pattern common to the six vertex-centric algorithms.
type Replayer struct {
	m        *Machine
	alloc    *allocator
	directed bool
	dsName   string

	out shadow
	in  shadow

	numNodes int

	// scratch
	mark []uint8
}

// ReplayConfig configures a Replayer.
type ReplayConfig struct {
	Machine MachineConfig
	// Threads is the replayed hardware-thread count (the paper profiles
	// with 64).
	Threads int
	// DataStructure is the ds registry name to model.
	DataStructure string
	Directed      bool
	// Chunks is the chunk count for AC/DAH models (default Threads).
	Chunks int
	// BlockSize is the Stinger block capacity (default 16).
	BlockSize int
	// FlushThreshold is the DAH low→high boundary (default 16).
	FlushThreshold int
}

// NewReplayer builds shadow layouts for the named data structure.
func NewReplayer(cfg ReplayConfig) (*Replayer, error) {
	threads := cfg.Threads
	if threads <= 0 {
		threads = 1
	}
	chunks := cfg.Chunks
	if chunks <= 0 {
		chunks = threads
	}
	r := &Replayer{
		m:        NewMachine(cfg.Machine, threads),
		alloc:    newAllocator(),
		directed: cfg.Directed,
		dsName:   cfg.DataStructure,
	}
	mk := func() (shadow, error) {
		switch cfg.DataStructure {
		case "adjshared":
			return newShadowAdj(r.alloc, 0), nil
		case "adjchunked":
			return newShadowAdj(r.alloc, chunks), nil
		case "stinger":
			return newShadowStinger(r.alloc, cfg.BlockSize), nil
		case "dah":
			return newShadowDAH(r.alloc, chunks, cfg.FlushThreshold), nil
		case "hybrid":
			return newShadowHybrid(r.alloc, chunks, cfg.FlushThreshold), nil
		}
		return nil, fmt.Errorf("archsim: no shadow model for data structure %q", cfg.DataStructure)
	}
	var err error
	if r.out, err = mk(); err != nil {
		return nil, err
	}
	if cfg.Directed {
		if r.in, err = mk(); err != nil {
			return nil, err
		}
	} else {
		r.in = r.out
	}
	return r, nil
}

// Machine exposes the simulated memory system.
func (r *Replayer) Machine() *Machine { return r.m }

// ChunkedStyle reports whether the modeled structure uses chunk-owned
// multithreading (AC/DAH/hybrid) rather than shared-style
// sharding. Callers picking a PhaseKind should ask this instead of
// hand-matching structure names, so new registrations cannot be
// misclassified silently.
func (r *Replayer) ChunkedStyle() bool { return r.out.threadOf(0) >= 0 }

func (r *Replayer) ensureNodes(batch graph.Batch) {
	max, ok := batch.MaxNode()
	if !ok {
		return
	}
	if n := int(max) + 1; n > r.numNodes {
		r.numNodes = n
	}
	r.out.ensureNodes(r.numNodes)
	r.in.ensureNodes(r.numNodes)
	for len(r.mark) < r.numNodes {
		r.mark = append(r.mark, 0)
	}
}

// threadFor attributes an edge to a replay thread: chunk-owned structures
// dictate the thread; shared-style structures shard the batch contiguously.
func (r *Replayer) threadFor(s shadow, src graph.NodeID, idx, total int) int {
	if t := s.threadOf(src); t >= 0 {
		return t % r.m.Threads()
	}
	if total == 0 {
		return 0
	}
	return idx * r.m.Threads() / total
}

// ReplayUpdate replays ingesting the batch into both copies and returns
// the phase traffic.
func (r *Replayer) ReplayUpdate(batch graph.Batch) Traffic {
	r.ensureNodes(batch)
	n := len(batch)
	// The workers stream through the batch input buffer itself (12 bytes
	// per edge record, freshly written by the ingest front-end).
	batchBase := r.alloc.alloc(uint64(n) * 12)
	for i, e := range batch {
		r.m.Access(r.threadFor(r.out, e.Src, i, n), batchBase+uint64(i)*12, false, 1)
		t := r.threadFor(r.out, e.Src, i, n)
		r.out.insert(r.m, t, e.Src, e.Dst)
		if r.directed {
			t = r.threadFor(r.in, e.Dst, i, n)
			r.in.insert(r.m, t, e.Dst, e.Src)
		} else {
			t = r.threadFor(r.out, e.Dst, i, n)
			r.out.insert(r.m, t, e.Dst, e.Src)
		}
	}
	return r.m.DrainPhase()
}

// ComputeTrace tunes the compute replay.
type ComputeTrace struct {
	// Incremental seeds propagation at the affected vertices; otherwise
	// the pass sweeps every vertex (FS).
	Incremental bool
	// NeedsDegree replays PageRank's out-degree normalization the way
	// the kernels do it, through the contribution vector contrib[u] =
	// rank[u]/outdeg(u): each in-neighbor costs one contribution read
	// (in place of its property read), and each recomputed vertex one
	// degree query and one contribution write.
	NeedsDegree bool
	// ProcessedBudget caps replayed vertex recomputations; pass the real
	// engine's Stats().Processed to mirror the measured work. 0 means
	// no cap beyond the propagation itself.
	ProcessedBudget uint64
}

func propAddr(v graph.NodeID) uint64    { return propBase + uint64(v)*8 }
func contribAddr(v graph.NodeID) uint64 { return contribBase + uint64(v)*8 }

// ReplayCompute replays one compute phase and returns the phase traffic.
// affected is the batch's endpoint set (Algorithm 1's affected array).
func (r *Replayer) ReplayCompute(affected []graph.NodeID, kind ComputeTrace) Traffic {
	// The INC engine drains every frontier — the seed included — off a
	// bitmap in ascending vertex order (compute.frontier); the replay walks
	// the same order so the predicted locality is that of the code that
	// runs. An FS sweep is ascending by construction.
	var frontier []graph.NodeID
	if kind.Incremental {
		frontier = append(frontier, affected...)
		slices.Sort(frontier)
	} else {
		for v := 0; v < r.numNodes; v++ {
			frontier = append(frontier, graph.NodeID(v))
		}
	}
	budget := kind.ProcessedBudget
	if budget == 0 {
		budget = uint64(len(frontier))
	}
	neighAddr := propAddr
	if kind.NeedsDegree {
		neighAddr = contribAddr
	}
	var processed uint64
	for len(frontier) > 0 && processed < budget {
		var next []graph.NodeID
		n := len(frontier)
		for i, v := range frontier {
			if processed >= budget {
				break
			}
			processed++
			t := i * r.m.Threads() / n
			// Pull: read own property, traverse in-neighbor
			// storage, read each neighbor's property — or, for
			// PageRank, its contribution.
			r.m.Access(t, propAddr(v), false, instrVertex)
			for _, u := range r.in.traverse(r.m, t, v) {
				r.m.Access(t, neighAddr(u), false, instrEdgeMath)
			}
			r.m.Access(t, propAddr(v), true, 1)
			if kind.NeedsDegree {
				r.out.degree(r.m, t, v)
				r.m.Access(t, contribAddr(v), true, 1)
			}
			// Push: changed vertices activate out-neighbors.
			if kind.Incremental {
				for _, w := range r.out.traverse(r.m, t, v) {
					if r.mark[w] == 0 {
						r.mark[w] = 1
						next = append(next, w)
					}
				}
			}
		}
		for _, w := range next {
			r.mark[w] = 0
		}
		slices.Sort(next)
		frontier = next
	}
	return r.m.DrainPhase()
}
