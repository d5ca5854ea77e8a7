// Package elio reads and writes edge-list streams in the plain text
// format SNAP distributes ("src dst" or "src dst weight" per line, '#'
// comments), so real datasets can be fed through the pipeline exactly
// like the synthetic generators. Unweighted lines get weight 1, matching
// how the unweighted SNAP graphs are consumed by weighted algorithms.
package elio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sagabench/internal/graph"
)

// Read parses an edge list. Blank lines and lines starting with '#' or
// '%' are skipped. Fields may be separated by any run of spaces or tabs.
func Read(r io.Reader) ([]graph.Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var edges []graph.Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("elio: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("elio: line %d: source: %w", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("elio: line %d: destination: %w", lineNo, err)
		}
		w := 1.0
		if len(fields) == 3 {
			w, err = strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("elio: line %d: weight: %w", lineNo, err)
			}
			// ParseFloat accepts "NaN" and "Inf" without error, and NaN
			// fails every comparison: ask for what a weight must be.
			if !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("elio: line %d: weight %v must be positive and finite", lineNo, w)
			}
		}
		edges = append(edges, graph.Edge{
			Src:    graph.NodeID(src),
			Dst:    graph.NodeID(dst),
			Weight: graph.Weight(w),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("elio: %w", err)
	}
	return edges, nil
}

// Write emits edges as "src dst weight" lines.
func Write(w io.Writer, edges []graph.Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.Src, e.Dst, e.Weight); err != nil {
			return fmt.Errorf("elio: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("elio: %w", err)
	}
	return nil
}
