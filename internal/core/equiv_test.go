package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/partition"
)

// equivCase is one kind's inputs to the differential table: a solo
// lane and a three-lane batch of mixed k.
type equivCase struct {
	kind  mld.Kind
	solo  mld.BatchLane
	batch []mld.BatchLane
}

func equivCases() []equivCase {
	return []equivCase{
		{mld.KindPath, mld.BatchLane{K: 4, Seed: 11, Rounds: 1},
			[]mld.BatchLane{{K: 2, Seed: 1, Rounds: 1}, {K: 5, Seed: 2, Rounds: 2}, {K: 4, Seed: 3, Rounds: 1}}},
		{mld.KindTree, mld.BatchLane{Template: graph.StarTemplate(4), Seed: 12, Rounds: 1},
			[]mld.BatchLane{{Template: graph.PathTemplate(3), Seed: 4, Rounds: 1},
				{Template: graph.StarTemplate(4), Seed: 5, Rounds: 2}, {Template: graph.RandomTemplate(5, 7), Seed: 6, Rounds: 1}}},
		{mld.KindScan, mld.BatchLane{K: 3, ZMax: 4, Seed: 13, Rounds: 1},
			[]mld.BatchLane{{K: 2, ZMax: 3, Seed: 7, Rounds: 1}, {K: 4, ZMax: 5, Seed: 8, Rounds: 1}, {K: 3, ZMax: 2, Seed: 9, Rounds: 2}}},
		{mld.KindMotif, mld.BatchLane{Motif: &mld.MotifSpec{K: 4, Counts: map[int32]int{0: 1, 1: 1}}, Seed: 14, Rounds: 1},
			[]mld.BatchLane{{Motif: &mld.MotifSpec{K: 3}, Seed: 10, Rounds: 1},
				{Motif: &mld.MotifSpec{K: 5, Counts: map[int32]int{0: 2}}, Seed: 11, Rounds: 1},
				{Motif: &mld.MotifSpec{K: 4, Counts: map[int32]int{0: 2, 1: 1, 2: 1}}, Seed: 12, Rounds: 2}}},
		{mld.KindMaxWeight, mld.BatchLane{K: 3, Seed: 15, Rounds: 1},
			[]mld.BatchLane{{K: 2, Seed: 13, Rounds: 1}, {K: 4, Seed: 14, Rounds: 2}, {K: 3, Seed: 15, Rounds: 1}}},
	}
}

// soloSequential answers a solo lane with the sequential entry point of
// its kind, as a LaneResult of the answer fields.
func soloSequential(g *graph.Graph, kind mld.Kind, l mld.BatchLane, opt mld.Options) (r mld.LaneResult, err error) {
	switch kind {
	case mld.KindPath:
		r.Found, err = mld.DetectPath(g, l.K, opt)
	case mld.KindTree:
		r.Found, err = mld.DetectTree(g, l.Template, opt)
	case mld.KindScan:
		r.Table, err = mld.ScanTable(g, l.K, l.ZMax, opt)
	case mld.KindMotif:
		r.Found, err = mld.DetectMotif(g, l.Motif, opt)
	case mld.KindMaxWeight:
		r.Weight, r.Found, err = mld.MaxWeightPath(g, l.K, opt)
	}
	return r, err
}

// soloDistributed is soloSequential through core's entry points.
func soloDistributed(c *comm.Comm, g *graph.Graph, kind mld.Kind, l mld.BatchLane, cfg Config) (r mld.LaneResult, err error) {
	cfg.Seed, cfg.Rounds, cfg.K = l.Seed, l.Rounds, l.K
	switch kind {
	case mld.KindPath:
		r.Found, err = RunPath(c, g, cfg)
	case mld.KindTree:
		r.Found, err = RunTree(c, g, l.Template, cfg)
	case mld.KindScan:
		r.Table, err = RunScan(c, g, ScanConfig{Config: cfg, ZMax: l.ZMax})
	case mld.KindMotif:
		r.Found, err = RunMotif(c, g, l.Motif, cfg)
	case mld.KindMaxWeight:
		r.Weight, r.Found, err = RunMaxWeightPath(c, g, cfg)
	}
	return r, err
}

// TestDistributedMatchesSequential is the differential table of the
// distributed backend: every kind × world shape (ranks 1–4, every N1
// dividing ranks) × partitioner × {solo, mixed-k batch}, checked
// against the sequential mld call with the same seeds. Answers, tables
// and weights must be identical and every rank must agree; batch lanes
// must also report the sequential batch's rounds and phases.
func TestDistributedMatchesSequential(t *testing.T) {
	graphs := []*graph.Graph{graph.RandomGNM(24, 60, 1), graph.Star(12)} // a yes- and a no-instance graph
	for _, g := range graphs {
		w := make([]int64, g.NumVertices())
		l := make([]int32, g.NumVertices())
		for v := range w {
			w[v], l[v] = int64(v%3), int32(v*7%3)
		}
		g.SetWeights(w)
		g.SetLabels(l)
	}
	// N2 rotates through widths that leave ragged final phases.
	n2s := []int{1, 4, 3, 8, 5, 2, 16, 6, 7}
	shape := 0
	for ranks := 1; ranks <= 4; ranks++ {
		for n1 := 1; n1 <= ranks; n1++ {
			if ranks%n1 != 0 {
				continue
			}
			for _, scheme := range []partition.Scheme{partition.SchemeBlock, partition.SchemeBFSGrow} {
				n2 := n2s[shape%len(n2s)]
				shape++
				cfg := Config{N1: n1, N2: n2, Scheme: scheme, NoTiming: true}
				for gi, g := range graphs {
					for _, tc := range equivCases() {
						name := fmt.Sprintf("%s/g%d/ranks%d/n1-%d/n2-%d/%s", tc.kind, gi, ranks, n1, n2, scheme)
						checkSolo(t, name, ranks, g, tc, cfg)
						checkBatch(t, name, ranks, g, tc, cfg)
					}
				}
			}
		}
	}
}

func checkSolo(t *testing.T, name string, ranks int, g *graph.Graph, tc equivCase, cfg Config) {
	t.Helper()
	want, err := soloSequential(g, tc.kind, tc.solo, mld.Options{Seed: tc.solo.Seed, Rounds: tc.solo.Rounds, N2: cfg.N2})
	if err != nil {
		t.Fatalf("%s: sequential: %v", name, err)
	}
	got := make([]mld.LaneResult, ranks)
	err = comm.RunLocal(ranks, comm.CostModel{}, func(c *comm.Comm) (err error) {
		got[c.Rank()], err = soloDistributed(c, g, tc.kind, tc.solo, cfg)
		return err
	})
	if err != nil {
		t.Fatalf("%s: solo: %v", name, err)
	}
	for r := range got {
		if !reflect.DeepEqual(got[r], want) {
			t.Fatalf("%s: solo rank %d: %+v, sequential %+v", name, r, got[r], want)
		}
	}
}

func checkBatch(t *testing.T, name string, ranks int, g *graph.Graph, tc equivCase, cfg Config) {
	t.Helper()
	want, err := mld.RunLanes(g, tc.kind, tc.batch, mld.Options{N2: cfg.N2}, nil)
	if err != nil {
		t.Fatalf("%s: sequential batch: %v", name, err)
	}
	got := make([][]mld.LaneResult, ranks)
	err = comm.RunLocal(ranks, comm.CostModel{}, func(c *comm.Comm) (err error) {
		got[c.Rank()], err = RunBatch(c, g, cfg, BatchSpec{Kind: tc.kind, Lanes: tc.batch})
		return err
	})
	if err != nil {
		t.Fatalf("%s: batch: %v", name, err)
	}
	for r := range got {
		if !reflect.DeepEqual(got[r], want) {
			t.Fatalf("%s: batch rank %d:\n %+v\nsequential:\n %+v", name, r, got[r], want)
		}
	}
}
