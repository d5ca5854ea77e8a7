package trace

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// Label puts pprof labels identifying a pipeline stage — batch/stage and
// the pipeline's ds/alg/model — on the calling goroutine (goroutines it
// starts inherit them) and returns the function that clears them again. CPU profiles
// captured from the telemetry endpoint's /debug/pprof/profile then
// attribute samples to pipeline stages (`go tool pprof -tagfocus
// stage=compute ...`), closing the gap between "the process was busy" and
// "batch 1041's update stage was busy".
//
// Callers branch on PprofLabels() first — the disabled path must not pay
// for building the label set:
//
//	if tr.PprofLabels() {
//		defer tr.Label(seq, "update", "adjshared", "pr", "inc")()
//	}
func (t *Tracer) Label(batchSeq uint64, stage, ds, alg, model string) (clear func()) {
	if t == nil {
		return func() {}
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(
		"batch", strconv.FormatUint(batchSeq, 10),
		"stage", stage,
		"ds", ds,
		"alg", alg,
		"model", model,
	)))
	return clearLabels
}

func clearLabels() { pprof.SetGoroutineLabels(context.Background()) }
