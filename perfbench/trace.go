package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/midas-hpc/midas/internal/obs"
)

// start anchors the benchmark's clock; every span and op timestamp is
// seconds since start on the monotonic clock.
var start = time.Now()

func clock() float64 { return time.Since(start).Seconds() }

// wallSecs places a wall-clock instant (the server's stage timestamps)
// on the benchmark clock.
func wallSecs(t time.Time) float64 { return t.Sub(start).Seconds() }

// benchPid is the trace lane of the benchmark's own op spans (ranks
// take lanes 0..N-1).
const benchPid = 100

// newBenchRecorder returns the recorder for the benchmark's op spans.
// Spans stay in memory until writeTrace runs at exit.
func newBenchRecorder() *obs.Recorder { return obs.NewRecorder(benchPid, clock) }

// writeTrace writes the snapshots as one Chrome trace JSON file with
// the repository's obs exporter and returns its path.
func writeTrace(dir, workload string, seed uint64, snaps ...obs.Snapshot) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteTrace(w, snaps...); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanStats walks a snapshot's spans (in begin order, with depths) and
// sums, per category, total and self time (a span's duration minus its
// direct children's).
type spanStats struct {
	total map[string]float64
	self  map[string]float64
	durs  map[string][]float64
}

func summarizeSpans(spans []obs.Span) spanStats {
	st := spanStats{total: map[string]float64{}, self: map[string]float64{}, durs: map[string][]float64{}}
	child := make([]float64, len(spans))
	var stack []int // indices of enclosing spans by depth
	for i, sp := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].Depth >= sp.Depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			child[stack[len(stack)-1]] += sp.Dur
		}
		stack = append(stack, i)
	}
	for i, sp := range spans {
		st.total[sp.Cat] += sp.Dur
		st.self[sp.Cat] += sp.Dur - child[i]
		st.durs[sp.Cat] = append(st.durs[sp.Cat], sp.Dur)
	}
	return st
}
