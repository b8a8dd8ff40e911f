package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/serve"
)

// serve-mix drives the built cmd/midas-serve binary over loopback HTTP
// with two closed-loop clients (one connection each, so no queue
// builds). The op list runs in chunks: before each chunk's timing
// starts, the benchmark computes the library scanstat table of every
// new scanstat identity in the chunk, and the digest of every graph the
// chunk registers, so each answer is checked against a reference made
// before it was timed.
const (
	serveClients = 2
	chunkOps     = 64
	// readyTimeout bounds the wait for a starting server's listen line.
	readyTimeout = 30 * time.Second
	// stopTimeout bounds a server's drain after SIGTERM before SIGKILL.
	stopTimeout = 20 * time.Second
)

// server is one running midas-serve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
}

// startServer launches midas-serve with default flags plus a fresh
// store directory and waits until it listens.
func startServer(bin, storeDir string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storeDir)
	cmd.Stderr = io.Discard // structured logs: one access line per query
	// If the benchmark dies, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "midas-serve: listening on "); ok {
				addr <- a
			}
		}
		// Drain to EOF, then reap: Wait must follow the last read.
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case err := <-s.done:
		return nil, fmt.Errorf("midas-serve exited before listening: %v", err)
	case <-time.After(readyTimeout):
		s.stop()
		return nil, fmt.Errorf("midas-serve not listening after %v", readyTimeout)
	}
}

// stop drains the server with SIGTERM (SIGKILL after stopTimeout) and
// waits for the process to exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-s.done:
	case <-time.After(stopTimeout):
		s.cmd.Process.Kill() //nolint:errcheck
		<-s.done
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// client is one closed-loop caller with its own connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: base}
}

// post sends a JSON body and returns the status and response body.
func (c *client) post(path string, body []byte, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(serve.RequestIDHeader, reqID)
	}
	return c.do(req)
}

func (c *client) get(path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// graphBody encodes a registration of g under name, inline.
func graphBody(name string, g *graph.Graph) ([]byte, error) {
	return json.Marshal(serve.GraphRequest{
		Name: name, N: g.NumVertices(), Edges: g.Edges(), Weights: g.Weights(), Labels: g.Labels(),
	})
}

// queryRequest is the API request for a query op.
func (in *inputs) queryRequest(o op) serve.QueryRequest {
	q := serve.QueryRequest{Graph: "yes", Kind: o.Kind, K: o.K, Seed: o.Seed}
	if o.No {
		q.Graph = "no"
	}
	switch o.Kind {
	case kindTree:
		q.K = 0 // the template determines k
		q.Template = templateEdges(in.templates[o.Tpl])
	case kindScanStat:
		q.ZMax = serveZMax
	case kindMotif:
		q.Motif = make(map[string]int)
		for c, m := range motifPool[o.Motif] {
			q.Motif[strconv.Itoa(int(c))] = m
		}
	}
	return q
}

// opBody encodes op i's request body.
func (in *inputs) opBody(i int) ([]byte, error) {
	o := in.ops[i]
	if o.Kind == kindRegister {
		return json.Marshal(serve.GraphRequest{Name: "reg-" + strconv.Itoa(i), Random: &serve.RandomSpec{N: serveN, Seed: o.Reg}})
	}
	return json.Marshal(in.queryRequest(o))
}

// serveSetup starts a server on a fresh store, registers the yes- and
// no-graph and runs one warm-up query; it returns the server and the
// set-up seconds (process start to warm-up answer).
func serveSetup(cfg config, in *inputs, storeDir string, bodies [2][]byte) (*server, float64, error) {
	t0 := time.Now()
	s, err := startServer(cfg.serveBin, storeDir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(s.base)
	for _, b := range bodies {
		code, resp, err := c.post("/v1/graphs", b, "")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("register: HTTP %d: %s", code, resp)
		}
		if err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	body, err := json.Marshal(in.queryRequest(in.warm))
	if err == nil {
		var code int
		var resp []byte
		code, resp, err = c.post("/v1/query", body, "")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("warm-up query: HTTP %d: %s", code, resp)
		}
	}
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0).Seconds(), nil
}

// opResult is one served op as the client saw it.
type opResult struct {
	client   int
	start    float64 // bench clock
	latency  float64 // seconds
	code     int
	body     []byte
	err      error
	timeline *serve.TraceView // traced chunks only
}

// serveRun holds a serve-mix run's state.
type serveRun struct {
	cfg     config
	in      *inputs
	clients []*client
	results []opResult
	tables  map[string][][]bool // library scanstat table per identity
	digests map[int]uint64      // register op index → expected digest
}

// prepare computes, untimed, the references for ops [lo, hi): library
// scanstat tables for new identities and expected registration
// digests, plus every request body.
func (r *serveRun) prepare(lo, hi int, bodies [][]byte) error {
	for i := lo; i < hi; i++ {
		o := r.in.ops[i]
		switch o.Kind {
		case kindScanStat:
			id := o.identity()
			if _, ok := r.tables[id]; !ok {
				// Workers is not part of a query's identity: the worker
				// count never changes the table, so use both cores.
				t, err := mld.ScanTable(r.in.graphFor(o), o.K, serveZMax, mld.Options{Seed: o.Seed, Workers: 2})
				if err != nil {
					return fmt.Errorf("library scanstat table: %w", err)
				}
				r.tables[id] = t
			}
		case kindRegister:
			r.digests[i] = graph.RandomNLogN(serveN, o.Reg).Digest()
		}
		b, err := r.in.opBody(i)
		if err != nil {
			return err
		}
		bodies[i-lo] = b
	}
	return nil
}

// runChunk runs ops [lo, hi) with the closed-loop clients and returns
// the timed window in seconds. traced chunks also fetch each query's
// stage timeline from the flight recorder (after its latency is taken).
func (r *serveRun) runChunk(lo, hi int, bodies [][]byte, traced bool) float64 {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	t0 := clock()
	for ci, c := range r.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				o := r.in.ops[i]
				path := "/v1/query"
				if o.Kind == kindRegister {
					path = "/v1/graphs"
				}
				reqID := fmt.Sprintf("perfbench-%d-%d", r.cfg.seed, i)
				res := opResult{client: ci, start: clock()}
				res.code, res.body, res.err = c.post(path, bodies[i-lo], reqID)
				res.latency = clock() - res.start
				if traced && o.Kind != kindRegister && res.err == nil {
					res.timeline = fetchTimeline(c, reqID)
				}
				r.results[i] = res
			}
		}(ci, c)
	}
	wg.Wait()
	return clock() - t0
}

// fetchTimeline reads one request's stage timeline from the flight
// recorder (nil if it is not there).
func fetchTimeline(c *client, reqID string) *serve.TraceView {
	code, b, err := c.get("/v1/debug/requests/" + reqID)
	if err != nil || code != http.StatusOK {
		return nil
	}
	var tv serve.TraceView
	if json.Unmarshal(b, &tv) != nil {
		return nil
	}
	return &tv
}

// served is the decoded answer of a query op.
type served struct {
	found  bool
	table  [][]bool
	rounds int64
	phases int64
}

// check classifies op i's response against its reference.
func (r *serveRun) check(out *outcome, i int, res opResult) (served, bool) {
	o := r.in.ops[i]
	if res.err != nil || res.code != http.StatusOK {
		out.errors++
		return served{}, false
	}
	if o.Kind == kindRegister {
		var gv serve.GraphView
		if json.Unmarshal(res.body, &gv) != nil {
			out.errors++
			return served{}, false
		}
		if gv.Digest != strconv.FormatUint(r.digests[i], 16) || gv.Vertices != serveN {
			out.wrong++
		}
		return served{}, true
	}
	var jv serve.JobView
	if json.Unmarshal(res.body, &jv) != nil || jv.Status != "done" || jv.Result == nil {
		out.errors++
		return served{}, false
	}
	a := served{found: jv.Result.Found, table: jv.Result.Table, rounds: jv.Result.Rounds, phases: jv.Result.Phases}
	if o.Kind == kindScanStat {
		if !sameTable(a.table, r.tables[o.identity()]) {
			out.wrong++
		}
		if o.No {
			// Nothing connected is larger than a no-graph component.
			for j := serveNoComp + 1; j < len(a.table); j++ {
				for _, f := range a.table[j] {
					if f {
						out.wrong++
						return a, true
					}
				}
			}
		}
		return a, true
	}
	out.check(o, a.found)
	return a, true
}

// sameTable compares two feasibility tables; a JSON null row equals an
// empty one.
func sameTable(a, b [][]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if len(a[j]) != len(b[j]) {
			return false
		}
		for z := range a[j] {
			if a[j][z] != b[j][z] {
				return false
			}
		}
	}
	return true
}

// runServe runs serve-mix.
func runServe(cfg config, in *inputs, tmp string) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, extra: map[string]any{}}
	var regs [2][]byte
	var err error
	if regs[0], err = graphBody("yes", in.yes); err != nil {
		return nil, err
	}
	if regs[1], err = graphBody("no", in.no); err != nil {
		return nil, err
	}
	reps := setupReps
	if cfg.trace {
		reps = 1 // set-up time is an end-to-end metric: measured untraced
	}
	var setups []float64
	var srv *server
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.stop()
		}
		var t float64
		srv, t, err = serveSetup(cfg, in, filepath.Join(tmp, "store"+strconv.Itoa(i)), regs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	defer srv.stop()

	r := &serveRun{
		cfg: cfg, in: in, results: make([]opResult, len(in.ops)),
		tables: map[string][][]bool{}, digests: map[int]uint64{},
	}
	for i := 0; i < serveClients; i++ {
		r.clients = append(r.clients, newClient(srv.base))
	}
	before, err := scrapeMetrics(r.clients[0])
	if err != nil {
		return nil, err
	}

	var timed, cpuSecs float64
	var tracedSecs, plainSecs float64
	var tracedOps, plainOps int
	bodies := make([][]byte, chunkOps)
	n := 0
	for chunk := 0; n+chunkOps <= len(in.ops); chunk++ {
		// At least minTailOps ops, which also means a traced run has both
		// untraced and traced chunks.
		if timed >= cfg.seconds && n >= minTailOps {
			break
		}
		if err := r.prepare(n, n+chunkOps, bodies); err != nil {
			return nil, err
		}
		traced := cfg.trace && chunk%2 == 1
		cpu0, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		secs := r.runChunk(n, n+chunkOps, bodies, traced)
		cpu1, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		timed += secs
		cpuSecs += (cpu1 - cpu0).Seconds()
		if traced {
			tracedSecs, tracedOps = tracedSecs+secs, tracedOps+chunkOps
		} else {
			plainSecs, plainOps = plainSecs+secs, plainOps+chunkOps
		}
		n += chunkOps
	}
	after, err := scrapeMetrics(r.clients[0])
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}

	var lat []float64
	answers := make([]served, n)
	ok := make([]bool, n)
	for i := 0; i < n; i++ {
		out.attempted++
		answers[i], ok[i] = r.check(out, i, r.results[i])
		if ok[i] {
			lat = append(lat, r.results[i].latency*1e3)
		}
	}
	latencyMetrics(out, lat, timed, cpuSecs*1e3)
	out.metrics["peak_rss_mb"] = rss
	out.metrics["setup_s"] = median(setups)
	out.extra["chunks"] = n / chunkOps
	if cfg.trace {
		out.metrics["obs.trace_overhead_share"] = (tracedSecs/float64(tracedOps))/(plainSecs/float64(plainOps)) - 1
		if err := r.layers(out, answers, ok, n, before, after); err != nil {
			return nil, err
		}
		if err := probeLayers(cfg, in, out.metrics, filepath.Join(tmp, "storeprobe")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// layers fills serve-mix's per-layer metrics and writes its trace.
func (r *serveRun) layers(out *outcome, answers []served, ok []bool, n int, before, after map[string]float64) error {
	m := out.metrics
	byKind := map[string][]float64{}
	var queue, assembly, dp, outside []float64
	var rounds, phases, dpOps float64
	var spans []obs.Span
	queries := 0
	for i := 0; i < n; i++ {
		if !ok[i] {
			continue
		}
		o, res := r.in.ops[i], r.results[i]
		byKind[o.Kind] = append(byKind[o.Kind], res.latency*1e3)
		if o.Kind != kindRegister {
			queries++
			// Exact counts: the fresh queries of the first two chunks run
			// the DP in every run with this seed.
			if o.Repeat < 0 && i < 2*chunkOps {
				rounds += float64(answers[i].rounds)
				phases += float64(answers[i].phases)
				dpOps++
			}
		}
		if (i/chunkOps)%2 == 0 {
			continue // untraced chunk
		}
		spans = append(spans, obs.Span{Name: fmt.Sprintf("op %d %s", i, o.Kind), Cat: "bench", Start: res.start, Dur: res.latency, Tid: res.client})
		if res.timeline == nil {
			continue
		}
		at := map[string]float64{}
		st := res.timeline.Stages
		for j, ev := range st {
			at[ev.Stage] = wallSecs(ev.At)
			if j+1 < len(st) {
				spans = append(spans, obs.Span{Name: ev.Stage, Cat: "serve", Start: wallSecs(ev.At),
					Dur: st[j+1].At.Sub(ev.At).Seconds(), Depth: 1, Tid: res.client})
			}
		}
		if _, ran := at[serve.StageDP]; ran {
			dpMs := (at[serve.StageDone] - at[serve.StageDP]) * 1e3
			queue = append(queue, (at[serve.StageAdmitted]-at[serve.StageQueued])*1e3)
			assembly = append(assembly, (at[serve.StageDP]-at[serve.StageAdmitted])*1e3)
			dp = append(dp, dpMs)
			outside = append(outside, res.latency*1e3-dpMs)
		}
	}
	if len(dp) == 0 {
		return fmt.Errorf("no traced query ran the DP")
	}
	for _, k := range []string{kindPath, kindTree, kindScanStat, kindMotif} {
		m["serve."+k+"_p50_ms"] = median(byKind[k])
	}
	m["serve.register_ms_p50"] = median(byKind[kindRegister])
	m["serve.queue_ms_p50"] = median(queue)
	m["serve.batch_assembly_ms_p50"] = median(assembly)
	m["serve.dp_ms_p50"] = median(dp)
	m["serve.outside_dp_ms_p50"] = median(outside)

	delta := func(name string) float64 { return after[name] - before[name] }
	m["serve.cache_hit_share"] = delta("midas_serve_cache_hits_total") / float64(queries)
	m["serve.singleflight_share"] = delta("midas_serve_singleflight_shared_total") / float64(queries)
	// Mean queries answered per DP execution: a batch of L lanes is one
	// execution for L queries; a solo run is one for one.
	misses, lanes, batches := delta("midas_serve_cache_misses_total"), delta("midas_serve_batch_lanes_total"), delta("midas_serve_batches_total")
	m["serve.batch_occupancy"] = misses / (misses - lanes + batches)
	m["serve.rejected"] = delta("midas_serve_rejected_total")
	m["store.hits"] = after["midas_store_hits_total"]
	m["store.misses"] = after["midas_store_misses_total"]
	m["store.mapped_mb"] = after["midas_store_mapped_bytes"] / (1 << 20)

	// The server runs each query's DP behind its API: only the rounds
	// and phases it returns are visible from outside. The other mld
	// counts, and the core, comm and partition layers (ranks=1 queries),
	// read 0 here.
	zeroLayers(m, "mld.", "core.", "comm.", "gf.computed_bytes_per_op")
	m["mld.rounds_per_op"] = rounds / dpOps
	m["mld.phases_per_op"] = phases / dpOps

	path, err := writeTrace(filepath.Join(r.cfg.workdir, "traces"), r.cfg.workload, r.cfg.seed,
		obs.Snapshot{Rank: benchPid, ProcName: "perfbench serve-mix (ops, with midas-serve stage timelines)", Spans: spans})
	if err != nil {
		return err
	}
	out.extra["trace_file"] = path
	return nil
}

// scrapeMetrics reads the server's /metrics and sums each sample name
// over its labels.
func scrapeMetrics(c *client) (map[string]float64, error) {
	code, b, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, nil
}
