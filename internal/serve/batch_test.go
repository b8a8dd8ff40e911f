package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

func TestAdmitQueueTakePreservesOrder(t *testing.T) {
	q := newAdmitQueue(8)
	mk := func(kind string) *job {
		return &job{Req: &QueryRequest{Kind: kind}}
	}
	jobs := []*job{mk(KindPath), mk(KindTree), mk(KindPath), mk(KindScanStat), mk(KindPath)}
	for _, j := range jobs {
		if !q.push(j) {
			t.Fatal("push rejected below capacity")
		}
	}
	got := q.take(func(j *job) bool { return j.Req.Kind == KindPath }, 2)
	if len(got) != 2 || got[0] != jobs[0] || got[1] != jobs[2] {
		t.Fatalf("take returned wrong jobs: %v", got)
	}
	if q.len() != 3 {
		t.Fatalf("queue length %d after take, want 3", q.len())
	}
	// Remaining admission order: tree, scanstat, path.
	for _, want := range []*job{jobs[1], jobs[3], jobs[4]} {
		j, ok := q.popWait()
		if !ok || j != want {
			t.Fatalf("popWait out of order: got %v want %v", j, want)
		}
	}
}

func TestAdmitQueueCloseWakesWaiters(t *testing.T) {
	q := newAdmitQueue(2)
	done := make(chan bool, 1)
	go func() {
		_, ok := q.popWait()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("popWait returned ok after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("popWait did not wake on close")
	}
	if q.push(&job{}) {
		t.Fatal("push accepted after close")
	}
}

// TestBatchAssemblyMatchesSolo: with one worker and a batch window,
// concurrent compatible queries are answered by one batched execution
// — and every answer still matches the library exactly.
func TestBatchAssemblyMatchesSolo(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 250 * time.Millisecond, BatchMaxLanes: 8})
	base := "http://" + s.Addr()
	g := graph.RandomGNM(60, 180, 1) // testServer's graph "g", regenerated for the oracle

	type q struct {
		k    int
		seed uint64
	}
	qs := []q{{4, 10}, {6, 11}, {5, 12}, {7, 13}, {6, 14}}
	var wg sync.WaitGroup
	results := make([]JobView, len(qs))
	for i, qq := range qs {
		wg.Add(1)
		go func(i int, qq q) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/query", QueryRequest{
				Graph: "g", Kind: KindPath, K: qq.k, Seed: qq.seed, Rounds: 1,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: %d %s", i, resp.StatusCode, body)
				return
			}
			results[i] = decodeJob(t, body)
		}(i, qq)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, qq := range qs {
		want, err := mld.DetectPath(g, qq.k, mld.Options{Seed: qq.seed, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Status != StatusDone || results[i].Result == nil {
			t.Fatalf("query %d not done: %+v", i, results[i])
		}
		if results[i].Result.Found != want {
			t.Fatalf("query %d (k=%d seed=%d): served %v, library %v",
				i, qq.k, qq.seed, results[i].Result.Found, want)
		}
	}
	_, metrics := getBody(t, base+"/metrics")
	batches := metricValue(t, string(metrics), "midas_serve_batches_total")
	lanes := metricValue(t, string(metrics), "midas_serve_batch_lanes_total")
	if batches < 1 {
		t.Fatalf("no batched execution recorded (batches=%v)", batches)
	}
	if lanes < 2 {
		t.Fatalf("batch lanes %v, want >= 2 (occupancy never exceeded 1)", lanes)
	}
	if occ := metricValue(t, string(metrics), "midas_serve_batch_occupancy_seconds_count"); occ != batches {
		t.Fatalf("occupancy histogram count %v != batches %v", occ, batches)
	}
}

// TestBatchDistributedMatchesSolo: concurrent distributed queries of
// every kind (ranks>1, same world shape) batch through core.RunBatch
// and still match the library.
func TestBatchDistributedMatchesSolo(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 250 * time.Millisecond, BatchMaxLanes: 8})
	base := "http://" + s.Addr()
	g := weightedLabeledGraph()
	s.AddGraph("wl", g)
	tpls := [][][2]int32{{{0, 1}, {1, 2}}, {{0, 1}, {1, 2}, {1, 3}}, {{0, 1}, {1, 2}, {2, 3}, {2, 4}}}
	motifs := []map[string]int{nil, {"0": 2}, {"0": 1, "1": 1, "2": 1}}

	for _, kind := range []string{KindPath, KindTree, KindScanStat, KindMotif} {
		reqs := make([]QueryRequest, 3)
		for i := range reqs {
			reqs[i] = QueryRequest{Graph: "wl", Kind: kind, K: 3 + i, Seed: uint64(20 + i), Rounds: 1, Ranks: 2}
			switch kind {
			case KindTree:
				reqs[i].Template = tpls[i]
			case KindScanStat:
				reqs[i].ZMax = int64(2 + i)
			case KindMotif:
				reqs[i].Motif = motifs[i]
			}
		}
		_, before := getBody(t, base+"/metrics")
		var wg sync.WaitGroup
		results := make([]JobView, len(reqs))
		for i := range reqs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, body := postJSON(t, base+"/v1/query", reqs[i])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s query %d: %d %s", kind, i, resp.StatusCode, body)
					return
				}
				results[i] = decodeJob(t, body)
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		_, after := getBody(t, base+"/metrics")
		lanes := metricValue(t, string(after), "midas_serve_batch_lanes_total") - metricValue(t, string(before), "midas_serve_batch_lanes_total")
		if lanes < 2 {
			t.Fatalf("%s: %v batched lanes, want the queries to share a batch", kind, lanes)
		}
		for i, r := range reqs {
			want := librarySolo(t, g, &r)
			got := results[i].Result
			if got == nil || got.Found != want.Found || fmt.Sprint(got.Table) != fmt.Sprint(want.Table) {
				t.Fatalf("distributed %s query %d: got %+v, library %+v", kind, i, got, want)
			}
		}
	}
}

// weightedLabeledGraph is a small graph carrying the weights scanstat
// queries need and the labels motif queries need.
func weightedLabeledGraph() *graph.Graph {
	g := graph.RandomGNM(30, 75, 4)
	w := make([]int64, g.NumVertices())
	l := make([]int32, g.NumVertices())
	for v := range w {
		w[v], l[v] = int64(v%3), int32(v%3)
	}
	g.SetWeights(w)
	g.SetLabels(l)
	return g
}

// librarySolo answers a query with the sequential library call.
func librarySolo(t *testing.T, g *graph.Graph, r *QueryRequest) *Result {
	t.Helper()
	if err := r.validate(); err != nil {
		t.Fatal(err)
	}
	opt := mld.Options{Seed: r.Seed, Epsilon: r.Epsilon, Rounds: r.Rounds}
	res := &Result{Kind: r.Kind}
	var err error
	switch r.Kind {
	case KindPath:
		res.Found, err = mld.DetectPath(g, r.K, opt)
	case KindTree:
		tpl, _ := r.template()
		res.Found, err = mld.DetectTree(g, tpl, opt)
	case KindScanStat:
		res.Table, err = mld.ScanTable(g, r.K, r.ZMax, opt)
	case KindMotif:
		spec, _ := r.motifSpec()
		res.Found, err = mld.DetectMotif(g, spec, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBatchLaneCancelMasksLane: DELETE on one lane of an in-flight
// batch cancels only that lane; the other lane finishes with the
// correct answer.
func TestBatchLaneCancelMasksLane(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 300 * time.Millisecond, BatchMaxLanes: 4})
	base := "http://" + s.Addr()
	s.AddGraph("big", graph.RandomGNM(200, 800, 6))
	gBig := graph.RandomGNM(200, 800, 6)

	wait := false
	submit := func(k int, seed uint64) JobView {
		resp, body := postJSON(t, base+"/v1/query", QueryRequest{
			Graph: "big", Kind: KindPath, K: k, Seed: seed, Rounds: 1, N2: 32, Wait: &wait,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit: %d %s", resp.StatusCode, body)
		}
		return decodeJob(t, body)
	}
	// Both queries land in the same window (one worker, 300 ms window):
	// k=16 is the slow victim lane, k=14 the survivor.
	victim := submit(16, 30)
	survivor := submit(14, 31)

	jobStatus := func(id string) JobView {
		_, jb := getBody(t, base+"/v1/jobs/"+id)
		return decodeJob(t, jb)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if jobStatus(victim.ID).Status == StatusRunning && jobStatus(survivor.ID).Status == StatusRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+victim.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	// The statuses fan out only when the whole batch finishes — the
	// survivor sweeps its full 2^14 prefix after the victim is masked
	// — so give the post-cancel poll its own generous (race-detector
	// friendly) deadline.
	deadline = time.Now().Add(90 * time.Second)
	var vv, sv JobView
	for time.Now().Before(deadline) {
		vv, sv = jobStatus(victim.ID), jobStatus(survivor.ID)
		if vv.Status == StatusCancelled && sv.Status == StatusDone {
			break
		}
		if vv.Status == StatusDone {
			t.Fatalf("victim finished as done despite cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if vv.Status != StatusCancelled {
		t.Fatalf("victim status %q, want cancelled", vv.Status)
	}
	if sv.Status != StatusDone || sv.Result == nil {
		t.Fatalf("survivor status %q (result %v), want done", sv.Status, sv.Result)
	}
	want, err := mld.DetectPath(gBig, 14, mld.Options{Seed: 31, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sv.Result.Found != want {
		t.Fatalf("survivor answer %v, library %v", sv.Result.Found, want)
	}
	_, metrics := getBody(t, base+"/metrics")
	if c := metricValue(t, string(metrics), "midas_serve_cancelled_total"); c < 1 {
		t.Fatalf("cancelled counter %v, want >= 1", c)
	}
}

// TestBatchMixedKindsDoNotShare: queries of different kinds admitted
// together must not land in one batch — each kind gets its own
// execution, and all answers stay correct.
func TestBatchMixedKindsDoNotShare(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 150 * time.Millisecond, BatchMaxLanes: 8})
	base := "http://" + s.Addr()
	g := graph.RandomGNM(60, 180, 1)

	reqs := []QueryRequest{
		{Graph: "g", Kind: KindPath, K: 5, Seed: 40, Rounds: 1},
		{Graph: "g", Kind: KindTree, Template: [][2]int32{{0, 1}, {1, 2}, {1, 3}}, Seed: 41, Rounds: 1},
		{Graph: "g", Kind: KindPath, K: 6, Seed: 42, Rounds: 1},
	}
	var wg sync.WaitGroup
	results := make([]JobView, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/query", reqs[i])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: %d %s", i, resp.StatusCode, body)
				return
			}
			results[i] = decodeJob(t, body)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, r := range reqs {
		var want bool
		var err error
		if r.Kind == KindPath {
			want, err = mld.DetectPath(g, r.K, mld.Options{Seed: r.Seed, Rounds: 1})
		} else {
			tpl, terr := graph.NewTemplate(4, r.Template)
			if terr != nil {
				t.Fatal(terr)
			}
			want, err = mld.DetectTree(g, tpl, mld.Options{Seed: r.Seed, Rounds: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Result == nil || results[i].Result.Found != want {
			t.Fatalf("query %d (%s): got %+v, library %v", i, r.Kind, results[i].Result, want)
		}
	}
}

// TestBatchWindowOffIsSolo: BatchWindow zero means no batch counters
// ever move, even under concurrent compatible load.
func TestBatchWindowOffIsSolo(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	base := "http://" + s.Addr()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, base+"/v1/query", QueryRequest{
				Graph: "g", Kind: KindPath, K: 5, Seed: uint64(50 + i), Rounds: 1,
			})
		}(i)
	}
	wg.Wait()
	_, metrics := getBody(t, base+"/metrics")
	if b := metricValue(t, string(metrics), "midas_serve_batches_total"); b != 0 {
		t.Fatalf("batches counter %v with batching off, want 0", b)
	}
}

// TestBatchScanStat: scanstat lanes batch too, and tables match the
// library entry for entry.
func TestBatchScanStat(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 200 * time.Millisecond, BatchMaxLanes: 4})
	base := "http://" + s.Addr()
	n := 30
	g := graph.RandomGNM(n, 80, 9)
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(i % 3)
	}
	g.SetWeights(w)
	s.AddGraph("wg", g)

	type q struct {
		k    int
		zmax int64
		seed uint64
	}
	qs := []q{{3, 2, 60}, {4, 3, 61}, {3, 4, 62}}
	var wg sync.WaitGroup
	results := make([]JobView, len(qs))
	for i, qq := range qs {
		wg.Add(1)
		go func(i int, qq q) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/query", QueryRequest{
				Graph: "wg", Kind: KindScanStat, K: qq.k, ZMax: qq.zmax, Seed: qq.seed, Rounds: 1,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: %d %s", i, resp.StatusCode, body)
				return
			}
			results[i] = decodeJob(t, body)
		}(i, qq)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, qq := range qs {
		want, err := mld.ScanTable(g, qq.k, qq.zmax, mld.Options{Seed: qq.seed, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Result == nil {
			t.Fatalf("query %d has no result", i)
		}
		got := results[i].Result.Table
		if len(got) != len(want) {
			t.Fatalf("query %d: table size %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			for z := range want[j] {
				if got[j][z] != want[j][z] {
					t.Fatalf("query %d: table[%d][%d] = %v, want %v (k=%s)",
						i, j, z, got[j][z], want[j][z], strconv.Itoa(qq.k))
				}
			}
		}
	}
}
