package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"sagabench/internal/compute"
	"sagabench/internal/crosscheck"
	"sagabench/internal/graph"
)

// PoisonMeta identifies the pipeline a poison batch was quarantined from,
// so the written repro replays against the same structure and engine.
type PoisonMeta struct {
	Directed bool
	Threads  int
	DS       string
	Alg      string
	Model    compute.Model
	Source   graph.NodeID
}

// Quarantine writes a failing batch to a replayable .poison file in the
// durability directory, using the crosscheck repro codec so
// `sagafuzz -replay` consumes it directly. seq names the file (0 for a
// batch rejected by validation before it consumed a sequence number, in
// which case n distinguishes repeated offenders). Returns the file path.
func (m *Manager) Quarantine(meta PoisonMeta, seq uint64, reason string, adds, dels graph.Batch) (string, error) {
	r := &crosscheck.Repro{
		Directed: meta.Directed,
		Threads:  meta.Threads,
		DS:       meta.DS,
		Alg:      meta.Alg,
		Model:    meta.Model,
		Source:   meta.Source,
		Note:     fmt.Sprintf("quarantined batch seq=%d: %s", seq, reason),
		Stream:   crosscheck.Stream{{Adds: adds, Dels: dels}},
	}
	var f *os.File
	var err error
	if seq > 0 {
		f, err = os.Create(filepath.Join(m.cfg.Dir, fmt.Sprintf("batch-%06d.poison", seq)))
	} else {
		// Validation rejects don't consume sequence numbers: claim the
		// first name no earlier reject holds, whatever that file contains.
		for n := 0; ; n++ {
			f, err = os.OpenFile(filepath.Join(m.cfg.Dir, fmt.Sprintf("invalid-%06d.poison", n)),
				os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			if !errors.Is(err, fs.ErrExist) {
				break
			}
		}
	}
	if err != nil {
		return "", fmt.Errorf("durable: writing quarantine file: %w", err)
	}
	err = r.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("durable: writing quarantine file: %w", err)
	}
	m.rec.RecordQuarantine()
	return f.Name(), nil
}
