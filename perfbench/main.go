// Command perfbench is the MIDAS wall-clock benchmark. It runs one
// workload for a fixed time, checks every answer, and prints one JSON
// result line with the workload's end-to-end metrics (untraced run,
// -trace 0) or per-layer metrics (traced run, -trace 1):
//
//	bash perfbench/run.sh --workload seq-path --seed 1 --seconds 25 --trace 0
//
// run.sh builds this command and cmd/midas-serve from source into
// .bench_build/ and passes the server binary on; -workload all runs
// every workload, untraced and then traced. Workloads:
//
//   - seq-path: one caller, midas.FindPath k=10 on RandomNLogN(1000)
//   - dist-path: one caller, midas.RunLocal(2) + DistributedFindPath
//   - serve-mix: two closed-loop HTTP clients against midas-serve
//
// Each layer is measured from outside, by timing calls into its public
// functions and reading the counters the program already exports; the
// benchmark adds no instrumentation to the program. BENCHMARK.json at
// the repository root lists the metrics; metrics.go says which
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	serveBin string
	workdir  string // scratch: stores, traces; removed except traces
}

// outcome is what a workload run measured.
type outcome struct {
	attempted int
	errors    int // calls that returned an error, non-200s, transport failures
	wrong     int // answers contradicted by a witness or a reference
	falseNeg  int // "no" on a witnessed yes-instance
	yesOps    int // ops on witnessed yes-instances
	metrics   map[string]float64
	extra     map[string]any // informational record fields
}

// epsilon is the library's default one-sided error bound: a "no" on a
// yes-instance is allowed with at most this probability per query.
const epsilon = 0.05

// falseNegLimit is how many false negatives a run may show before they
// count as wrong answers: ε of the yes-instances, plus one.
func falseNegLimit(yesOps int) int { return 1 + int(epsilon*float64(yesOps)) }

func (o *outcome) wrongAnswers() int {
	w := o.wrong
	if o.falseNeg > falseNegLimit(o.yesOps) {
		w += o.falseNeg
	}
	return w
}

func (o *outcome) failed() int { return o.errors + o.wrongAnswers() }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: seq-path, dist-path, serve-mix, or all (each untraced, then traced)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	traceN := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&cfg.serveBin, "serve-bin", "", "midas-serve binary (serve-mix)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for stores and traces")
	probe := fs.Bool("setup-probe", false, "build the workload's graphs, run one warm-up op and exit (set-up timing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.workload != "all" && !contains(workloads, cfg.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want all or one of %v)\n", cfg.workload, workloads)
		return 2
	}
	if *probe {
		if err := setupProbe(cfg.workload, cfg.seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: setup probe: %v\n", err)
			return 1
		}
		return 0
	}
	if cfg.seconds <= 0 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg.trace = *traceN == 1
	if cfg.workload != wlSeqPath && cfg.workload != wlDistPath && cfg.serveBin == "" {
		fmt.Fprintln(stderr, "perfbench: serve-mix needs -serve-bin")
		return 2
	}
	if cfg.workload != "all" {
		return measureAndReport(cfg, stdout, stderr)
	}
	// -workload all: every workload, untraced then traced, one report
	// each (the contract line of the last one ends the output).
	code := 0
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.trace = wl, traced
			if c := measureAndReport(cfg, stdout, stderr); c != 0 {
				code = c
			}
		}
	}
	return code
}

func measureAndReport(cfg config, stdout, stderr io.Writer) int {
	rec, res, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printReport(stdout, rec, res)
	return 0
}

// measure builds the inputs, runs the workload and assembles the full
// record and the contract result.
func measure(cfg config, stderr io.Writer) (map[string]any, *result, error) {
	abs, err := filepath.Abs(cfg.workdir)
	if err != nil {
		return nil, nil, err
	}
	cfg.workdir = abs
	tmp := filepath.Join(cfg.workdir, "tmp", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	in, err := buildInputs(cfg.workload, cfg.seed, opListLen(cfg.workload))
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d op-list digest %s (%d ops)\n", cfg.workload, cfg.seed, in.digest, len(in.ops))
	steal0, total0 := cpuTicks()
	var out *outcome
	switch cfg.workload {
	case wlServeMix:
		out, err = runServe(cfg, in, tmp)
	default:
		out, err = runLibrary(cfg, in, tmp)
	}
	if err != nil {
		return nil, nil, err
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := &result{
		Correct: out.wrongAnswers() == 0, Attempted: out.attempted, Failed: out.failed(),
		Metrics: make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := out.metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if res.Attempted < 1 {
		return nil, nil, errors.New("no op was attempted")
	}
	rec := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host": fingerprint(), "opListDigest": in.digest,
		"witnesses": len(in.witnesses), "attempted": out.attempted, "failed_share": float64(out.failed()) / float64(out.attempted),
		"wrong_answers": out.wrongAnswers(), "errors": out.errors,
		"false_negatives": out.falseNeg, "yes_ops": out.yesOps,
		"metrics": out.metrics,
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		rec["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	for k, v := range out.extra {
		rec[k] = v
	}
	return rec, res, nil
}

// opListLen is the fixed op-list length per workload, independent of
// -seconds so the op-list digest depends on the seed alone. It is far
// more than a run of up to 60 s can use: library ops take over 50 ms,
// served ones over 10 ms on average.
func opListLen(workload string) int {
	if workload == wlServeMix {
		return 20000
	}
	return 4000
}

// printReport writes the human-readable metric table and the full
// record to stdout, then the contract line last.
func printReport(w io.Writer, rec map[string]any, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%v trace=%v digest=%v failed_share=%v wrong_answers=%v\n",
		rec["workload"], rec["seed"], rec["trace"], rec["opListDigest"], rec["failed_share"], rec["wrong_answers"])
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "# %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(map[string]any{"record": rec})
	if err == nil {
		fmt.Fprintf(w, "%s\n", b)
	}
	b, _ = json.Marshal(res) // only numbers, strings and bools: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

// setupReps is how many times a run repeats its set-up to report the
// median set-up time.
const setupReps = 7

// librarySetup times the library workloads' set-up: a fresh process
// that builds the graphs and runs one warm-up op (so the coefficient
// table cache is as cold as a one-shot caller's), setupReps times.
func librarySetup(cfg config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(self, "-setup-probe", "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10))
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
