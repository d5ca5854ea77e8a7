// Package perfmon is the PCM-style architecture profiler: it attaches an
// archsim Replayer to a streaming run and produces the per-stage hardware
// characterization of paper Section VI — memory bandwidth and QPI
// utilization (Fig 9b/c), core-count scaling curves (Fig 9a), and L2/LLC
// hit ratios and MPKI (Fig 10) — separately for the update and compute
// phases.
package perfmon

import (
	"context"

	"sagabench/internal/archsim"
	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/graph"
	"sagabench/internal/stats"
)

// Phase distinguishes the two phases of a batch.
type Phase int

// Phases.
const (
	Update Phase = iota
	Compute
)

func (p Phase) String() string {
	if p == Update {
		return "update"
	}
	return "compute"
}

// Config describes a profiled run.
type Config struct {
	// Run is the experiment; its OnBatch must be unset (the profiler
	// installs its own observer).
	Run core.RunConfig
	// Threads is the replayed hardware-thread count (default 64, the
	// paper's full machine).
	Threads int
	// Machine overrides the simulated platform (default PaperMachine).
	Machine *archsim.MachineConfig
}

// Report is the pooled per-stage architecture characterization.
type Report struct {
	Model archsim.PerfModel
	// Profiles[stage][phase] pools the batches of stage P1..P3.
	Profiles [3][2]archsim.PhaseProfile
}

// Profile runs the experiment once with the replayer attached; ctx stops
// it at a batch boundary (core.Stream).
func Profile(ctx context.Context, cfg Config) (*Report, error) {
	threads := cfg.Threads
	if threads <= 0 {
		threads = 64
	}
	mc := archsim.PaperMachine()
	if cfg.Machine != nil {
		mc = *cfg.Machine
	}
	rep, err := archsim.NewReplayer(archsim.ReplayConfig{
		Machine:        mc,
		Threads:        threads,
		DataStructure:  cfg.Run.DataStructure,
		Directed:       cfg.Run.Dataset.Directed,
		BlockSize:      cfg.Run.DS.BlockSize,
		FlushThreshold: cfg.Run.DS.FlushThreshold,
	})
	if err != nil {
		return nil, err
	}

	kind := archsim.PhaseUpdateShared
	if rep.ChunkedStyle() {
		kind = archsim.PhaseUpdateChunked
	}

	type batchSample struct {
		upd, cmp          archsim.Traffic
		outLoads, inLoads []archsim.VertexLoad
		hotOut, hotIn     float64
	}
	var samples []batchSample

	runCfg := cfg.Run
	runCfg.Repeats = 1 // the replay is deterministic given the stream
	var affected []graph.NodeID
	seen := make(map[graph.NodeID]bool)
	runCfg.OnBatch = func(mb core.MixedBatch, rec *core.BatchRecord) {
		edges := mb.Adds
		var s batchSample
		s.upd = rep.ReplayUpdate(edges)
		srcs := make([]uint32, len(edges))
		dsts := make([]uint32, len(edges))
		// The affected set the engine was handed: each endpoint at its
		// first sighting, src before dst (an insert batch's endpoints all
		// exist after its update).
		affected = affected[:0]
		clear(seen)
		for i, e := range edges {
			srcs[i] = uint32(e.Src)
			dsts[i] = uint32(e.Dst)
			for _, v := range [2]graph.NodeID{e.Src, e.Dst} {
				if !seen[v] {
					seen[v] = true
					affected = append(affected, v)
				}
			}
		}
		if cfg.Run.Dataset.Directed {
			s.outLoads = archsim.LoadsOf(srcs)
			s.inLoads = archsim.LoadsOf(dsts)
			s.hotOut = archsim.HotnessOf(s.outLoads)
			s.hotIn = archsim.HotnessOf(s.inLoads)
		} else {
			// Undirected: both orientations land in one copy.
			s.outLoads = archsim.LoadsOf(append(append([]uint32{}, srcs...), dsts...))
			s.hotOut = archsim.HotnessOf(s.outLoads)
		}
		s.cmp = rep.ReplayCompute(affected, archsim.ComputeTrace{
			Incremental: cfg.Run.Model == compute.INC,
			// PageRank pulls contributions and queries the degree of
			// each vertex it recomputes, not of each in-neighbor.
			NeedsDegree:     cfg.Run.Algorithm == "pr",
			ProcessedBudget: rec.Compute.Processed,
		})
		samples = append(samples, s)
	}
	if _, err := core.Run(ctx, runCfg); err != nil {
		return nil, err
	}

	r := &Report{Model: archsim.DefaultPerfModel()}
	r.Model.Machine = mc
	directed := cfg.Run.Dataset.Directed
	for si, rg := range stats.Stages(len(samples)) {
		up := archsim.PhaseProfile{Kind: kind}
		cp := archsim.PhaseProfile{Kind: archsim.PhaseCompute}
		var hotOutSum, hotInSum float64
		n := 0
		for _, s := range samples[rg[0]:rg[1]] {
			up.Traffic.Add(s.upd)
			cp.Traffic.Add(s.cmp)
			up.OutLoads = archsim.MergeLoads(up.OutLoads, s.outLoads)
			if directed {
				up.InLoads = archsim.MergeLoads(up.InLoads, s.inLoads)
			}
			hotOutSum += s.hotOut
			hotInSum += s.hotIn
			n++
		}
		if n > 0 {
			// Hotness is a per-batch notion (locks contend within
			// a batch), so average it rather than recomputing over
			// the pooled histogram.
			up.HotOut = hotOutSum / float64(n)
			up.HotIn = hotInSum / float64(n)
		}
		r.Profiles[si][Update] = up
		r.Profiles[si][Compute] = cp
	}
	return r, nil
}

// Traffic returns the pooled traffic of a stage/phase.
func (r *Report) Traffic(stage int, ph Phase) archsim.Traffic {
	return r.Profiles[stage][ph].Traffic
}

// BandwidthGBs models consumed DRAM bandwidth in GB/s at the core count
// (Fig 9b).
func (r *Report) BandwidthGBs(stage int, ph Phase, cores int) float64 {
	return r.Model.Bandwidth(r.Profiles[stage][ph], cores) / 1e9
}

// QPIPercent models QPI utilization in percent (Fig 9c).
func (r *Report) QPIPercent(stage int, ph Phase, cores int) float64 {
	return 100 * r.Model.QPIUtilization(r.Profiles[stage][ph], cores)
}

// ScalingCurve models the Fig 9a performance-vs-cores curve for the pooled
// final-stage profile of the phase.
func (r *Report) ScalingCurve(ph Phase, coreCounts []int) []float64 {
	return r.Model.ScalingCurve(r.Profiles[2][ph], coreCounts)
}
