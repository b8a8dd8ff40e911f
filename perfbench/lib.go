package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"

	"github.com/midas-hpc/midas"
	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// hardCapFactor bounds a run that needs extra time to reach
// minTailOps: it stops at hardCapFactor × the measured seconds anyway.
const hardCapFactor = 3

// minTracePairs is the fixed op prefix a traced run always completes;
// exact counts are averaged over it, so they repeat exactly per seed.
const minTracePairs = 16

// scalingOps is how many ops a traced dist-path run also runs on one
// rank, for core.scaling_efficiency.
const scalingOps = 8

// libResult is one library op's measurements.
type libResult struct {
	found   bool
	wall    float64 // seconds
	rankEnd []float64
	stats   comm.Stats // summed over ranks
	modeled float64    // comm.MaxClock: the α–β model's makespan
	phaseAt []float64  // Config.Progress timestamps (rank 0)
	callAt  float64    // when the call started
}

// libRunner runs library ops; rec is non-nil in the traced half of a
// traced run, ranks selects dist-path's world size.
type libRunner struct {
	in    *inputs
	dist  bool
	bench *obs.Recorder   // op spans (traced only)
	ranks []*obs.Recorder // per-rank wall-clock recorders (traced dist only)
}

// do runs op o once, traced or not, and returns what it measured.
// Traced, the op's span is the parent of the library call's span, which
// is the parent of the spans the library records itself.
func (l *libRunner) do(o op, idx int, traced bool, worldSize int) (libResult, error) {
	g := l.in.graphFor(o)
	var res libResult
	opName := ""
	if traced {
		opName = fmt.Sprintf("op %d", idx)
	}
	res.callAt = clock()
	var err error
	if l.dist {
		var ranks []*obs.Recorder
		if traced {
			ranks = l.ranks
		}
		err = distFindPath(g, o, worldSize, ranks, opName, &res)
	} else {
		opt := midas.Options{Seed: o.Seed}
		if traced {
			opt.Obs = l.bench
			l.bench.Begin(opName, "bench")
			l.bench.Begin("midas.FindPath", "call")
		}
		res.found, err = midas.FindPath(g, o.K, opt)
		if traced {
			l.bench.End()
			l.bench.End()
		}
	}
	res.wall = clock() - res.callAt
	return res, err
}

// distFindPath runs one distributed k-path query on an in-process world
// and records per-rank finish times, traffic and the modeled makespan.
// With recorders, each rank's lane gets the op span around its call.
func distFindPath(g *graph.Graph, o op, worldSize int, recs []*obs.Recorder, opName string, res *libResult) error {
	var mu sync.Mutex
	comms := make([]*midas.Cluster, worldSize)
	answers := make([]bool, worldSize)
	res.rankEnd = make([]float64, worldSize)
	cfg := midas.ClusterConfig{N1: min(distN1, worldSize), Seed: o.Seed}
	cfg.Progress = func(done, total int64) {
		res.phaseAt = append(res.phaseAt, clock()) // world rank 0 only
	}
	err := midas.RunLocal(worldSize, func(c *midas.Cluster) error {
		r := c.Rank()
		if recs != nil {
			c.AttachRecorder(recs[r])
			recs[r].Begin(opName, "bench")
			recs[r].Begin("midas.DistributedFindPath", "call")
		}
		found, err := midas.DistributedFindPath(c, g, o.K, cfg)
		end := clock()
		if recs != nil {
			recs[r].End()
			recs[r].End()
		}
		mu.Lock()
		comms[r], answers[r], res.rankEnd[r] = c, found, end
		mu.Unlock()
		return err
	})
	if err != nil {
		return err
	}
	for r, c := range comms {
		if answers[r] != answers[0] {
			return fmt.Errorf("ranks disagree on the answer (rank %d: %t, rank 0: %t)", r, answers[r], answers[0])
		}
		res.stats.Add(*c.Stats())
	}
	res.found = answers[0]
	res.modeled = comm.MaxClock(comms)
	return nil
}

// check classifies one answer against the op's ground truth.
func (out *outcome) check(o op, found bool) {
	switch {
	case o.No && found:
		out.wrong++ // a "yes" on a no-instance is never allowed
	case !o.No:
		out.yesOps++
		if !found {
			out.falseNeg++
		}
	}
}

// setupProbe is the body of a set-up timing child process.
func setupProbe(workload string, seed uint64) error {
	if workload != wlSeqPath && workload != wlDistPath {
		return errors.New("only the library workloads time their set-up in a probe process")
	}
	yes, _ := buildGraphs(workload, seed)
	l := &libRunner{in: &inputs{yes: yes}, dist: workload == wlDistPath}
	warm := op{Kind: kindPath, K: libK, Seed: seed}
	_, err := l.do(warm, 0, false, distRanks)
	return err
}

// runLibrary runs seq-path or dist-path.
func runLibrary(cfg config, in *inputs, tmp string) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, extra: map[string]any{}}
	l := &libRunner{in: in, dist: cfg.workload == wlDistPath}
	if _, err := l.do(in.warm, -1, false, distRanks); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if cfg.trace {
		return out, l.traced(cfg, out)
	}
	// Set-up time is an end-to-end metric, measured in untraced runs.
	setup, err := librarySetup(cfg)
	if err != nil {
		return nil, err
	}

	var lat []float64
	cpu0, t0 := selfCPU(), clock()
	for i, o := range in.ops {
		el := clock() - t0
		if (el >= cfg.seconds && i >= minTailOps) || el >= hardCapFactor*cfg.seconds {
			break
		}
		res, err := l.do(o, i, false, distRanks)
		out.attempted++
		if err != nil {
			out.errors++
			continue
		}
		out.check(o, res.found)
		lat = append(lat, res.wall*1e3)
	}
	elapsed := clock() - t0
	cpu := selfCPU() - cpu0
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	latencyMetrics(out, lat, elapsed, cpu.Seconds()*1e3)
	out.metrics["peak_rss_mb"] = rss
	out.metrics["setup_s"] = setup
	return out, nil
}

// latencyMetrics fills the throughput and latency metrics of a run.
func latencyMetrics(out *outcome, latMs []float64, elapsed, cpuMs float64) {
	out.metrics["ops_per_s"] = float64(out.attempted) / elapsed
	out.metrics["latency_p50_ms"] = median(latMs)
	out.metrics["latency_p90_ms"] = percentile(latMs, 90)
	out.metrics["cpu_ms_per_op"] = cpuMs / float64(out.attempted)
	q1, _, q3 := quartiles(latMs)
	out.extra["latency_q1_ms"], out.extra["latency_q3_ms"] = q1, q3
	out.extra["latency_samples"] = len(latMs)
	out.extra["tail_percentile"] = tailPercentile(len(latMs))
}

// traced is a library workload's per-layer run: each op of the list
// runs untraced and then traced (so the pair shares host conditions),
// until the measured time is up and at least minTracePairs pairs ran.
func (l *libRunner) traced(cfg config, out *outcome) error {
	if l.dist {
		for r := 0; r < distRanks; r++ {
			l.ranks = append(l.ranks, obs.NewRecorder(r, clock))
		}
	} else {
		l.bench = newBenchRecorder()
	}
	var (
		plain, traced          []libResult
		allocs, allocBytes     uint64
		dpOps, phases, levels  int64
		rounds, skipped        int64
		counted                int
		ms0, ms1               runtime.MemStats
		untracedSum, tracedSum float64
		oneRank                []float64 // dist-path: one-rank walls of the first pairs' ops
	)
	counter := func(c obs.Counter) int64 {
		v := l.bench.Get(c)
		for _, r := range l.ranks {
			v += r.Get(c)
		}
		return v
	}
	t0 := clock()
	for i, o := range l.in.ops {
		el := clock() - t0
		if el >= cfg.seconds && i >= minTracePairs {
			break
		}
		runtime.ReadMemStats(&ms0)
		a, err := l.do(o, i, false, distRanks)
		runtime.ReadMemStats(&ms1)
		out.attempted++
		if err != nil {
			out.errors++
			continue
		}
		out.check(o, a.found)
		allocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc

		if l.dist && len(oneRank) < scalingOps {
			// The same op on one rank, right after the two-rank run, so
			// both see the same host conditions.
			r1, err := l.do(o, i, false, 1)
			out.attempted++
			if err != nil {
				out.errors++
				continue
			}
			out.check(o, r1.found)
			oneRank = append(oneRank, r1.wall)
		}

		c0 := [5]int64{counter(obs.DPOps), counter(obs.Phases), counter(obs.Levels), counter(obs.Rounds), counter(obs.CellsSkipped)}
		b, err := l.do(o, i, true, distRanks)
		out.attempted++
		if err != nil {
			out.errors++
			continue
		}
		out.check(o, b.found)
		if i < minTracePairs {
			dpOps += counter(obs.DPOps) - c0[0]
			phases += counter(obs.Phases) - c0[1]
			levels += counter(obs.Levels) - c0[2]
			rounds += counter(obs.Rounds) - c0[3]
			skipped += counter(obs.CellsSkipped) - c0[4]
			counted++
		}
		plain = append(plain, a)
		traced = append(traced, b)
		untracedSum += a.wall
		tracedSum += b.wall
	}
	if len(plain) < minTracePairs {
		return fmt.Errorf("traced run finished only %d of %d op pairs", len(plain), minTracePairs)
	}
	n := float64(len(traced))
	m := out.metrics
	m["obs.trace_overhead_share"] = tracedSum/untracedSum - 1
	m["mld.allocs_per_op"] = float64(allocs) / float64(len(plain))
	m["mld.alloc_bytes_per_op"] = float64(allocBytes) / float64(len(plain))
	m["mld.dp_ops_per_op"] = float64(dpOps) / float64(counted)
	m["mld.phases_per_op"] = float64(phases) / float64(counted)
	m["mld.levels_per_op"] = float64(levels) / float64(counted)
	m["mld.rounds_per_op"] = float64(rounds) / float64(counted)
	m["mld.cells_skipped_per_op"] = float64(skipped) / float64(counted)
	m["gf.computed_bytes_per_op"] = 2 * m["mld.dp_ops_per_op"] // one GF(2^16) element per DP op

	var snaps []obs.Snapshot
	if l.bench != nil {
		s := l.bench.Snapshot()
		s.ProcName = "perfbench " + cfg.workload
		snaps = append(snaps, s)
	}
	for _, r := range l.ranks {
		snaps = append(snaps, r.Snapshot())
	}
	var spans []obs.Span
	var totalDP float64
	for _, s := range snaps {
		spans = append(spans, s.Spans...) // each lane's spans start at depth 0
		totalDP += float64(s.Counter(obs.DPOps))
	}
	st := summarizeSpans(spans)
	m["mld.phase_ms_p50"] = median(st.durs["phase"]) * 1e3
	m["mld.level_self_ms_per_op"] = st.self["level"] / n * 1e3
	m["mld.outside_levels_ms_per_op"] = (st.total["call"] - st.total["level"]) / n * 1e3
	m["mld.dp_ops_per_busy_s"] = totalDP / st.self["level"]

	// Library workloads bypass serve and store; seq-path also core and
	// comm (dist-path fills those in below).
	zeroLayers(m, "core.", "comm.", "serve.", "store.")
	if l.dist {
		if err := l.distLayers(plain, oneRank, m); err != nil {
			return err
		}
	}
	if err := probeLayers(cfg, l.in, m, ""); err != nil {
		return err
	}

	path, err := writeTrace(filepath.Join(cfg.workdir, "traces"), cfg.workload, cfg.seed, snaps...)
	if err != nil {
		return err
	}
	out.extra["trace_file"] = path
	out.extra["trace_pairs"] = len(plain)
	return nil
}

// distLayers fills dist-path's core and comm metrics from the untraced
// halves of the pairs (exact counts from the fixed prefix), and scaling
// efficiency from the one-rank runs of the first ops.
func (l *libRunner) distLayers(plain []libResult, oneRank []float64, m map[string]float64) error {
	var skew, phaseMs, ratio []float64
	var msgs, bytes, colls int64
	for i, r := range plain {
		lo, hi := r.rankEnd[0], r.rankEnd[0]
		for _, e := range r.rankEnd {
			lo, hi = min(lo, e), max(hi, e)
		}
		skew = append(skew, (hi-lo)*1e3)
		prev := r.callAt
		for _, at := range r.phaseAt {
			phaseMs = append(phaseMs, (at-prev)*1e3)
			prev = at
		}
		ratio = append(ratio, r.modeled/r.wall)
		if i < minTracePairs {
			msgs += r.stats.MsgsSent
			bytes += r.stats.BytesSent
			colls += r.stats.Collectives
		}
	}
	m["core.rank_skew_ms"] = median(skew)
	m["core.phase_ms_p50"] = median(phaseMs)
	m["core.modeled_over_measured"] = median(ratio)
	m["comm.msgs_per_op"] = float64(msgs) / minTracePairs
	m["comm.bytes_per_op"] = float64(bytes) / minTracePairs
	m["comm.collectives_per_op"] = float64(colls) / minTracePairs

	var two []float64
	for _, r := range plain[:len(oneRank)] {
		two = append(two, r.wall)
	}
	m["core.scaling_efficiency"] = median(oneRank) / (distRanks * median(two))
	return nil
}
