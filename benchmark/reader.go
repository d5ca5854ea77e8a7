package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"sagabench/internal/epoch"
	"sagabench/internal/graph"
)

// session is one pinned epoch as a reader sees it; core.QueryHandle (the
// pipeline pass) and pinned (the layer replay) both provide it.
type session interface {
	Epoch() uint64
	Staleness() uint64
	OutDegree(graph.NodeID) int
	Out(graph.NodeID) []graph.Neighbor
	HasEdge(src, dst graph.NodeID) (graph.Weight, bool)
	Value(graph.NodeID) (float64, bool)
	Release()
}

// pinned is a session held directly on the epoch manager.
type pinned struct {
	*epoch.Snapshot
	m *epoch.Manager
}

func (p pinned) Epoch() uint64 { return p.Snapshot.Epoch }
func (p pinned) Release()      { p.m.Release(p.Snapshot) }
func (p pinned) Staleness() uint64 {
	if latest := p.m.LatestEpoch(); latest > p.Snapshot.Epoch {
		return latest - p.Snapshot.Epoch
	}
	return 0
}

const (
	readRounds  = 32 // OutDegree/Out/HasEdge/Value rounds per session
	readBurst   = 32 // sessions run back to back between two pauses
	readPause   = 4 * time.Millisecond
	sampleEvery = 16 // sessions between two timed ones: the clock reads stay off most sessions
	maxSamples  = 1 << 19
)

type readerStats struct {
	sessions     int
	failed       int // sessions that missed a published epoch or read something inconsistent
	sessionUs    []float64
	pinReleaseNs []float64
	stalenessMax uint64
	wallS        float64
}

// reader runs read sessions on its own goroutine: pin the latest epoch,
// readRounds rounds of point reads at random vertices, release. It is a
// closed client with think time: readBurst sessions back to back, then
// readPause asleep, which keeps it busy about a tenth of the time. A reader
// that never pauses takes a whole core, and on the 2-core reference box the
// writer then shares the other with the collector and with whatever else
// the host runs: the batch times measured the scheduler (spreads of 40 %).
// It checks what it reads — a degree that disagrees with its
// adjacency run, an edge the run lists but HasEdge denies, an epoch older
// than the last one seen — because a writer-side gain must not be paid for
// with a torn or recycled snapshot.
type reader struct {
	quit atomic.Bool
	done chan readerStats
}

func startReader(acquire func() (session, error), nodes int, seed int64) *reader {
	r := &reader{done: make(chan readerStats, 1)}
	go func() {
		var st readerStats
		rng := uint64(seed)*2685821657736338717 + 1
		next := func() uint64 { // xorshift64*
			rng ^= rng >> 12
			rng ^= rng << 25
			rng ^= rng >> 27
			return rng * 2685821657736338717
		}
		var lastEpoch uint64
		begin := time.Now()
		for !r.quit.Load() {
			timed := st.sessions%sampleEvery == sampleEvery/2 && len(st.sessionUs) < maxSamples
			var t0, t1, t2 time.Time
			if timed {
				t0 = time.Now()
			}
			h, err := acquire()
			if err != nil {
				// Sessions start after the preload published, so a miss is a failure.
				st.sessions++
				st.failed++
				runtime.Gosched()
				continue
			}
			if timed {
				t1 = time.Now()
			}
			bad := h.Epoch() < lastEpoch
			lastEpoch = h.Epoch()
			for i := 0; i < readRounds; i++ {
				v := graph.NodeID(next() % uint64(nodes))
				out := h.Out(v)
				if h.OutDegree(v) != len(out) {
					bad = true
				}
				if len(out) > 0 {
					nb := out[next()%uint64(len(out))]
					if w, ok := h.HasEdge(v, nb.ID); !ok || w != nb.Weight {
						bad = true
					}
					if _, ok := h.Value(v); !ok {
						bad = true
					}
				}
			}
			if s := h.Staleness(); s > st.stalenessMax {
				st.stalenessMax = s
			}
			if timed {
				t2 = time.Now()
			}
			h.Release()
			if timed {
				t3 := time.Now()
				st.sessionUs = append(st.sessionUs, float64(t3.Sub(t0).Nanoseconds())/1e3)
				st.pinReleaseNs = append(st.pinReleaseNs, float64((t1.Sub(t0) + t3.Sub(t2)).Nanoseconds()))
			}
			st.sessions++
			if bad {
				st.failed++
			}
			if st.sessions%readBurst == 0 {
				time.Sleep(readPause)
			}
		}
		st.wallS = time.Since(begin).Seconds()
		r.done <- st
	}()
	return r
}

// stop ends the reader after its current session and returns what it saw.
func (r *reader) stop() readerStats {
	r.quit.Store(true)
	return <-r.done
}
