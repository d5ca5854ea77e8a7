package ds

// UpdateProfile holds the concurrency-relevant counts a store gathers while
// it ingests and deletes: lock conflicts quantify the thread contention
// that limits shared-style structures on short-tailed graphs, and
// per-chunk loads the workload imbalance that limits chunked structures
// on heavy-tailed graphs. Every store keeps one and hands it over through
// OneDir.TakeProfile; the pipeline takes it into BatchRecord.DS once per
// batch, right after the update stage, and the per-batch telemetry event
// and the saga_ds_* counters are read off that record. Reads (view
// refresh, compute, export) are not counted: what a take hands over is
// update work only.
type UpdateProfile struct {
	// EdgesIngested counts edge records offered to the store (including
	// duplicates that only refreshed a weight).
	EdgesIngested uint64
	// Inserted counts records that created a new adjacency entry.
	Inserted uint64
	// ScanSteps counts elements examined by pre-insert searches (vector
	// elements, Stinger block slots, or hash probes).
	ScanSteps uint64
	// LockConflicts counts lock acquisitions that found the lock already
	// held (shared-style structures only).
	LockConflicts uint64
	// ChunkLoads is the per-chunk edge count (chunked-style structures
	// only); its spread measures workload imbalance.
	ChunkLoads []uint64
	// MetaOps counts degree-query and flush meta-operations (DAH only)
	// or tier-transition copy work (hybrid).
	MetaOps uint64
	// TierPromotions counts per-vertex representation upgrades
	// (inline→array, array→hash) in degree-adaptive structures.
	TierPromotions uint64
	// TierDemotions counts representation downgrades under deletions
	// (hash→array, array→inline); with hysteresis working, promotions and
	// demotions should both stay rare on a steady mixed stream.
	TierDemotions uint64
}

// MoveTo adds p into dst (chunk loads index-wise, dst's slice grown to
// p's length) and zeroes p, keeping p's chunk-load slice: the body of a
// store's TakeProfile. Once dst's slice has grown it allocates nothing.
func (p *UpdateProfile) MoveTo(dst *UpdateProfile) {
	dst.EdgesIngested += p.EdgesIngested
	dst.Inserted += p.Inserted
	dst.ScanSteps += p.ScanSteps
	dst.LockConflicts += p.LockConflicts
	dst.MetaOps += p.MetaOps
	dst.TierPromotions += p.TierPromotions
	dst.TierDemotions += p.TierDemotions
	for len(dst.ChunkLoads) < len(p.ChunkLoads) {
		dst.ChunkLoads = append(dst.ChunkLoads, 0)
	}
	for i, v := range p.ChunkLoads {
		dst.ChunkLoads[i] += v
	}
	clear(p.ChunkLoads)
	*p = UpdateProfile{ChunkLoads: p.ChunkLoads}
}

// Imbalance reports max/mean of the chunk loads (1 = perfectly balanced,
// larger = more of the batch funnels into few chunks). Returns 1 when the
// store is not chunked or has seen no work.
func (p *UpdateProfile) Imbalance() float64 {
	var max, sum uint64
	n := 0
	for _, v := range p.ChunkLoads {
		sum += v
		if v > max {
			max = v
		}
		n++
	}
	if n == 0 || sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(n)
	return float64(max) / mean
}
