package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/partition"
	"github.com/midas-hpc/midas/internal/store"
)

// Layer probes: direct, repeated calls into a layer's public functions,
// each reported as the median of probeReps timings.
const (
	probeReps = 5
	// sliceWidth is the DP's iteration-vector width: N2 = 128 GF(2^16)
	// elements under the default options every workload uses.
	sliceWidth = 128
	// kernelSpin is how long one kernel probe repetition runs.
	kernelSpin = 40 * time.Millisecond
)

// digestSink keeps the digest probe's result live.
var digestSink uint64

// medianMs times f probeReps times and returns the median in ms.
func medianMs(f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts), nil
}

// kernelGBps runs kernel over sliceWidth-element slices for kernelSpin,
// probeReps times, and returns the median rate in GB/s of output
// elements written.
func kernelGBps(kernel func()) float64 {
	var rates []float64
	for i := 0; i < probeReps; i++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < kernelSpin {
			for j := 0; j < 256; j++ {
				kernel()
			}
			calls += 256
		}
		rates = append(rates, float64(calls*sliceWidth*2)/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}

// probeLayers fills the gf, graph, partition and store probe metrics.
// Partition is probed only on dist-path and the store only on
// serve-mix (storeDir set); the other workloads bypass them.
func probeLayers(cfg config, in *inputs, m map[string]float64, storeDir string) error {
	src := make([]gf.Elem, sliceWidth)
	dst := make([]gf.Elem, sliceWidth)
	b := make([]gf.Elem, sliceWidth)
	for i := range src {
		src[i], b[i] = gf.NonZero(uint64(i)*0x9e3779b97f4a7c15), gf.NonZero(uint64(i)+7)
	}
	tab := gf.NewMulTable(gf.NonZero(12345))
	m["gf.mul_table16_gbps"] = kernelGBps(func() { gf.MulSliceTable16(dst, src, tab) })
	m["gf.hadamard_gbps"] = kernelGBps(func() { gf.HadamardInto(dst, src, b) })

	var err error
	if m["graph.build_ms"], err = medianMs(func() error { buildGraphs(cfg.workload, cfg.seed); return nil }); err != nil {
		return err
	}
	if m["graph.digest_ms"], err = medianMs(func() error { digestSink = in.yes.Digest(); return nil }); err != nil {
		return err
	}

	m["partition.build_ms"], m["partition.edge_cut_share"] = 0, 0
	if cfg.workload == wlDistPath {
		var p *partition.Partition
		m["partition.build_ms"], err = medianMs(func() error {
			p, err = partition.ByScheme(partition.SchemeBlock, in.yes, distN1, cfg.seed)
			return err
		})
		if err != nil {
			return err
		}
		m["partition.edge_cut_share"] = float64(p.ComputeMetrics(in.yes).Cut) / float64(in.yes.NumEdges())
	}

	m["store.cold_start_ms"] = 0
	if storeDir != "" {
		if m["store.cold_start_ms"], err = storeColdStart(in, storeDir); err != nil {
			return err
		}
	}
	return nil
}

// storeColdStart writes the yes-graph to a fresh store, then times a
// cold Acquire (open + map) from a newly opened store, probeReps times.
func storeColdStart(in *inputs, dir string) (float64, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	digest, _, err := st.Put(in.yes)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < probeReps; i++ {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		h, err := st.Acquire(digest)
		d := time.Since(t0)
		if err != nil {
			st.Close()
			return 0, err
		}
		if h.Graph().NumEdges() != in.yes.NumEdges() {
			err = fmt.Errorf("store: mapped graph has %d edges, want %d", h.Graph().NumEdges(), in.yes.NumEdges())
		}
		h.Close()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		ts = append(ts, float64(d.Nanoseconds())/1e6)
	}
	return median(ts), os.RemoveAll(filepath.Clean(dir))
}

// zeroLayers reports 0 for every per-layer metric under the given
// prefixes: the layers a workload bypasses.
func zeroLayers(m map[string]float64, prefixes ...string) {
	for _, s := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(s.Name, p) {
				m[s.Name] = 0
			}
		}
	}
}
