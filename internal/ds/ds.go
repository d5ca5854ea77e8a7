// Package ds defines the SAGA-Bench data-structure API (paper Section
// III-D): batched concurrent ingestion plus in/out neighbor traversal. The
// four concrete topologies — adjacency list shared (AS), adjacency list
// chunked (AC), Stinger, and degree-aware hashing (DAH) — live in
// subpackages and register themselves here, so new structures plug in by
// implementing the same API and registering a constructor.
package ds

import (
	"fmt"
	"sort"
	"sync"

	"sagabench/internal/graph"
)

// Graph is the unified topology API: update(), out_neigh(), in_neigh() and
// degree queries from the paper's API description. Update is internally
// multithreaded; traversal is single-threaded per call but may be invoked
// from many goroutines concurrently as long as no Update is in flight
// (SAGA-Bench interleaves the update and compute phases, so the two never
// overlap).
type Graph interface {
	// Update ingests a batch of edges. Each edge is ingested uniquely:
	// an insert is preceded by a search, and re-inserting an existing
	// (src,dst) pair overwrites its weight instead of duplicating it.
	Update(batch graph.Batch)
	// NumNodes reports 1 + the highest vertex ID ingested so far.
	NumNodes() int
	// NumEdges reports the number of distinct directed edges stored
	// (for undirected graphs each input edge counts twice).
	NumEdges() int
	// OutDegree reports the distinct out-degree of v.
	OutDegree(v graph.NodeID) int
	// InDegree reports the distinct in-degree of v.
	InDegree(v graph.NodeID) int
	// OutNeigh appends v's out-neighbors to buf and returns it.
	OutNeigh(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor
	// InNeigh appends v's in-neighbors to buf and returns it.
	InNeigh(v graph.NodeID, buf []graph.Neighbor) []graph.Neighbor
	// Directed reports whether the graph distinguishes edge directions.
	Directed() bool
}

// Config carries construction parameters shared by all data structures plus
// the structure-specific tuning knobs (zero values select the paper's
// defaults).
type Config struct {
	Directed bool
	// Threads is the update-phase worker count; New raises it to at
	// least 1.
	Threads int
	// MaxNodesHint pre-sizes vertex-indexed arrays; growth past the hint
	// is handled transparently.
	MaxNodesHint int
	// BlockSize is the Stinger edge-block capacity (default 16, as in
	// the paper's implementation).
	BlockSize int
	// Chunks is the chunk count for the chunked-multithreading
	// structures AC, DAH and hybrid; New defaults it to Threads.
	Chunks int
	// FlushThreshold is the DAH low→high degree boundary (default 16).
	FlushThreshold int
}

// Constructor builds a Graph from a Config whose Threads and Chunks New
// has already normalised.
type Constructor func(Config) Graph

var (
	regMu    sync.RWMutex
	registry = map[string]Constructor{}
)

// Register installs a named constructor. Data-structure subpackages call it
// from init; the blank import of ds/all pulls in the standard four.
func Register(name string, c Constructor) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("ds: duplicate registration of %q", name))
	}
	registry[name] = c
}

// New builds the named data structure, or errors if it is unknown. It
// normalises cfg once for every constructor: Threads is at least 1, and
// Chunks defaults to Threads.
func New(name string, cfg Config) (Graph, error) {
	regMu.RLock()
	ctor, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ds: unknown data structure %q (have %v)", name, Names())
	}
	cfg.Threads = max(cfg.Threads, 1)
	if cfg.Chunks <= 0 {
		cfg.Chunks = cfg.Threads
	}
	return ctor(cfg), nil
}

// MustNew is New that panics on error; for tests and examples.
func MustNew(name string, cfg Config) Graph {
	g, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Names lists the registered data structures in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
