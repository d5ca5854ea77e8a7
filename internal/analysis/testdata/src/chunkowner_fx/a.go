// Package chunkowner_fx models a lockless chunked structure for the
// chunk-ownership check.
//
// saga:lockless
package chunkowner_fx

import "ds"

type store struct {
	adj   [][]int
	loads []uint64 // saga:chunked
	total uint64
}

func (s *store) good(edges []ds.Edge, chunks int) {
	ds.GroupByChunk(edges, chunks, func(chunk int, bucket []ds.Edge) {
		n := uint64(0)
		for _, e := range bucket {
			s.adj[e.Src] = append(s.adj[e.Src], e.Dst)
			n++
		}
		s.loads[chunk] = n
	})
}

func (s *store) badWrite(edges []ds.Edge, chunks int) {
	ds.GroupByChunk(edges, chunks, func(chunk int, bucket []ds.Edge) {
		s.total += uint64(len(bucket)) // want `chunk worker writes s.total`
	})
}

func (s *store) badChunkIndex(edges []ds.Edge, chunks int) {
	ds.GroupByChunk(edges, chunks, func(chunk int, bucket []ds.Edge) {
		s.loads[chunk] = 0
		_ = s.loads[0] // want `indexes saga:chunked field loads with 0`
	})
}

func (s *store) reset() {
	s.total = 0 // outside a worker: sequential phase, unchecked
}

// insert mutates only the vertex slot owned by the caller's chunk.
//
// saga:chunksafe
func (s *store) insert(v, dst int) {
	s.adj[v] = append(s.adj[v], dst)
}

func (s *store) grow(chunk int) { s.loads[chunk]++ }

func (s *store) viaMethods(edges []ds.Edge, chunks int) {
	ds.GroupByChunk(edges, chunks, func(chunk int, bucket []ds.Edge) {
		for _, e := range bucket {
			s.insert(e.Src, e.Dst)
		}
		s.grow(chunk) // want `calls s.grow on a captured receiver`
	})
}

func (s *store) audited(edges []ds.Edge, chunks int) {
	ds.GroupByChunk(edges, chunks, func(chunk int, bucket []ds.Edge) {
		// saga:allow chunkowner -- single-writer by construction: only chunk 0 is spawned here.
		s.total = uint64(len(bucket))
	})
}
