package core

import (
	"context"
	"errors"
	"testing"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/partition"
	"github.com/midas-hpc/midas/internal/rng"
)

// runBatchWorld runs a path RunBatch on a fresh local world and returns
// rank 0's results, asserting every rank got identical answers.
func runBatchWorld(t *testing.T, n int, g *graph.Graph, cfg Config, lanes []mld.BatchLane) []mld.LaneResult {
	t.Helper()
	all := make([][]mld.LaneResult, n)
	err := comm.RunLocal(n, comm.CostModel{}, func(c *comm.Comm) error {
		res, err := RunBatch(c, g, cfg, BatchSpec{Kind: mld.KindPath, Lanes: lanes})
		if err != nil {
			return err
		}
		all[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		for i := range lanes {
			if all[r][i].Found != all[0][i].Found || all[r][i].Rounds != all[0][i].Rounds {
				t.Fatalf("rank %d lane %d: %+v, rank 0: %+v", r, i, all[r][i], all[0][i])
			}
		}
	}
	return all[0]
}

// TestRunPathBatchMatchesSequential cross-validates the distributed
// batched evaluation against per-lane sequential DetectPath: same
// seeds, same rounds, byte-identical field totals, so the answers must
// agree exactly — across world sizes, partitioners, N1/N2 and mixed
// per-lane k (prefix reuse inside the deepest lane's sweep).
func TestRunPathBatchMatchesSequential(t *testing.T) {
	r := rng.New(23)
	graphs := []*graph.Graph{
		graph.RandomGNM(30, 80, 3),
		graph.Grid(5, 6),
		graph.Star(20), // no-instance for k >= 4
	}
	for gi, g := range graphs {
		var lanes []mld.BatchLane
		for i := 0; i < 5; i++ {
			lanes = append(lanes, mld.BatchLane{
				K:      1 + r.Intn(7),
				Seed:   r.Uint64(),
				Rounds: 1 + r.Intn(2),
			})
		}
		for _, tc := range []struct{ n, n1, n2 int }{
			{1, 1, 4}, {2, 1, 8}, {2, 2, 4}, {4, 2, 2}, {4, 4, 16}, {6, 3, 8},
		} {
			for _, scheme := range []partition.Scheme{partition.SchemeBlock, partition.SchemeBFSGrow} {
				cfg := Config{N1: tc.n1, N2: tc.n2, Scheme: scheme, NoTiming: true}
				res := runBatchWorld(t, tc.n, g, cfg, lanes)
				for i, l := range lanes {
					want, err := mld.DetectPath(g, l.K, mld.Options{Seed: l.Seed, Rounds: l.Rounds})
					if err != nil {
						t.Fatal(err)
					}
					if res[i].Err != nil {
						t.Fatalf("graph %d N=%d lane %d: unexpected error %v", gi, tc.n, i, res[i].Err)
					}
					if res[i].Found != want {
						t.Fatalf("graph %d N=%d N1=%d N2=%d scheme=%s lane %d (k=%d): distributed %v sequential %v",
							gi, tc.n, tc.n1, tc.n2, scheme, i, l.K, res[i].Found, want)
					}
				}
			}
		}
	}
}

func TestRunPathBatchLaneLargerThanGraph(t *testing.T) {
	g := graph.Path(6)
	lanes := []mld.BatchLane{{K: 3, Seed: 1, Rounds: 1}, {K: 9, Seed: 2, Rounds: 1}}
	res := runBatchWorld(t, 2, g, Config{N2: 4, NoTiming: true}, lanes)
	if !res[0].Found {
		t.Fatalf("P3 in P6 not found")
	}
	if res[1].Found || res[1].Err != nil || res[1].Rounds != 0 {
		t.Fatalf("k>n lane: got %+v, want immediate false", res[1])
	}
}

// TestRunPathBatchLaneCancelCollective: a cancelled lane retires on
// every rank at the same step (via the per-step lane bitmask
// all-reduce) while the other lanes run to completion — the batch
// neither aborts nor deadlocks.
func TestRunPathBatchLaneCancelCollective(t *testing.T) {
	g := graph.Grid(4, 5)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	lanes := []mld.BatchLane{
		{K: 6, Seed: 1, Rounds: 1},
		{K: 7, Seed: 2, Rounds: 1, Ctx: cancelled},
		{K: 5, Seed: 3, Rounds: 1},
	}
	for _, worldN := range []int{1, 2, 4} {
		res := runBatchWorld(t, worldN, g, Config{N2: 8, NoTiming: true}, lanes)
		if !errors.Is(res[1].Err, context.Canceled) {
			t.Fatalf("N=%d: cancelled lane error = %v, want context.Canceled", worldN, res[1].Err)
		}
		for _, i := range []int{0, 2} {
			want, _ := mld.DetectPath(g, lanes[i].K, mld.Options{Seed: lanes[i].Seed, Rounds: 1})
			if res[i].Err != nil || res[i].Found != want {
				t.Fatalf("N=%d surviving lane %d: got (%v, %v), want (%v, nil)",
					worldN, i, res[i].Found, res[i].Err, want)
			}
		}
	}
}

func TestRunPathBatchWholeBatchCancel(t *testing.T) {
	g := graph.Grid(4, 4)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	lanes := []mld.BatchLane{{K: 5, Seed: 1, Rounds: 1}, {K: 6, Seed: 2, Rounds: 1}}
	errs := make([]error, 2)
	err := comm.RunLocal(2, comm.CostModel{}, func(c *comm.Comm) error {
		res, err := RunBatch(c, g, Config{N2: 8, NoTiming: true, Ctx: cancelled}, BatchSpec{Kind: mld.KindPath, Lanes: lanes})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("rank %d: batch error = %v, want context.Canceled", c.Rank(), err)
		}
		for i, lr := range res {
			if !errors.Is(lr.Err, context.Canceled) {
				t.Errorf("rank %d lane %d: err = %v, want context.Canceled", c.Rank(), i, lr.Err)
			}
		}
		errs[c.Rank()] = err
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunPathBatchMessageCountMatchesSingleQuery pins the amortization
// claim of docs/BATCHING.md: a batch of L lanes exchanges exactly as
// many halo messages as ONE query at the deepest k — the batch widens
// payloads, never the message count. (Lanes shallower than the deepest
// can only reduce exchanged levels, never add any.)
func TestRunPathBatchMessageCountMatchesSingleQuery(t *testing.T) {
	g := graph.RandomGNM(40, 120, 5)
	cfg := Config{N1: 4, N2: 8, Seed: 9, Rounds: 1, NoTiming: true}
	countMsgs := func(run func(c *comm.Comm) error) int64 {
		comms, err := comm.RunLocalInspect(4, comm.CostModel{}, run)
		if err != nil {
			t.Fatal(err)
		}
		var msgs int64
		for _, c := range comms {
			msgs += c.Stats().MsgsSent
		}
		return msgs
	}
	single := countMsgs(func(c *comm.Comm) error {
		c1 := cfg
		c1.K = 8
		_, err := RunPath(c, g, c1)
		return err
	})
	lanes := []mld.BatchLane{
		{K: 8, Seed: 9, Rounds: 1},
		{K: 6, Seed: 10, Rounds: 1},
		{K: 5, Seed: 11, Rounds: 1},
		{K: 8, Seed: 12, Rounds: 1},
	}
	batched := countMsgs(func(c *comm.Comm) error {
		_, err := RunBatch(c, g, cfg, BatchSpec{Kind: mld.KindPath, Lanes: lanes})
		return err
	})
	// The batch run adds the per-step two-word lane sync (an all-reduce
	// per step plus one per round), so compare halo messages only: both
	// runs used point-to-point sends exclusively for halos, and the
	// all-reduce message overhead is bounded by the step count. Require
	// the batch to stay within single + sync overhead rather than 4×.
	if batched >= 4*single {
		t.Fatalf("batched halo traffic did not amortize: batch=%d msgs, single=%d msgs", batched, single)
	}
}
