package core

import (
	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

// BatchSpec is the query batch handed to RunBatch: the lanes of one
// kind to answer in one collective run. Per-run knobs (N1, N2,
// partition, context) stay in Config; per-query knobs (seed, epsilon,
// rounds, cancellation) ride the lanes.
type BatchSpec struct {
	Kind  mld.Kind
	Lanes []mld.BatchLane
}

// RunBatch answers every lane of the batch in one collective run: one
// partition, one phase schedule, one halo message per (peer, level)
// and one sync per step for the whole batch. Every rank of the world
// calls it with the same graph, config, and lanes; all ranks return
// the same per-lane results, each identical to the sequential
// mld.RunLanes with the lane's seeding. Config.K and the per-query
// seeding fields are ignored (the lanes carry them); Config.Ctx still
// cancels the whole batch, and a cancelled lane Ctx retires that lane
// on every rank at the same step.
func RunBatch(world *comm.Comm, g *graph.Graph, cfg Config, spec BatchSpec) ([]mld.LaneResult, error) {
	res, _, err := runLanes(world, g, cfg, spec.Kind, spec.Lanes)
	return res, err
}

// runLanes plans this rank's share of the lanes and runs them.
func runLanes(world *comm.Comm, g *graph.Graph, cfg Config, kind mld.Kind, lanes []mld.BatchLane) ([]mld.LaneResult, *plan, error) {
	p, err := buildPlan(world, g, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := p.run(g, kind, lanes)
	return res, p, err
}

// run answers lanes on the mld engine with the plan as its backend.
func (p *plan) run(g *graph.Graph, kind mld.Kind, lanes []mld.BatchLane) ([]mld.LaneResult, error) {
	opt := mld.Options{
		N2: p.cfg.N2, NoFingerprints: p.cfg.NoFingerprints, NoGray: p.cfg.NoGray,
		Obs: p.rec, Arena: p.arena, Ctx: p.cfg.Ctx,
	}
	return mld.RunLanes(g, kind, lanes, opt, p)
}

// runSolo runs one lane seeded from cfg.
func runSolo(world *comm.Comm, g *graph.Graph, cfg Config, kind mld.Kind, l mld.BatchLane) (mld.LaneResult, *plan, error) {
	l.Seed, l.Epsilon, l.Rounds = cfg.Seed, cfg.Epsilon, cfg.Rounds
	res, p, err := runLanes(world, g, cfg, kind, []mld.BatchLane{l})
	if err != nil {
		return mld.LaneResult{}, p, err
	}
	return res[0], p, res[0].Err
}

// RunPath executes distributed k-path detection (Algorithms 2 and 3).
// Every rank of the world communicator calls it collectively with the
// same graph and configuration; all ranks return the same answer.
func RunPath(world *comm.Comm, g *graph.Graph, cfg Config) (bool, error) {
	answer, _, err := RunPathProfiled(world, g, cfg)
	return answer, err
}

// RunPathProfiled is RunPath returning this rank's Profile.
func RunPathProfiled(world *comm.Comm, g *graph.Graph, cfg Config) (bool, Profile, error) {
	clock0 := world.Clock().Now()
	stats0 := *world.Stats()
	r, p, err := runSolo(world, g, cfg, mld.KindPath, mld.BatchLane{K: cfg.K})
	if err != nil {
		return false, Profile{}, err
	}
	return r.Found, Profile{
		ComputeSecs: p.computeSecs,
		TotalSecs:   world.Clock().Now() - clock0,
		MsgsSent:    world.Stats().MsgsSent - stats0.MsgsSent,
		BytesSent:   world.Stats().BytesSent - stats0.BytesSent,
	}, nil
}

// RunTree executes distributed k-tree detection (Algorithm 4). Every
// rank calls it collectively with the same graph, template and
// configuration. cfg.K is ignored; the template fixes k.
func RunTree(world *comm.Comm, g *graph.Graph, tpl *graph.Template, cfg Config) (bool, error) {
	r, _, err := runSolo(world, g, cfg, mld.KindTree, mld.BatchLane{Template: tpl})
	return r.Found, err
}

// ScanConfig extends Config with the weight cap of the scan-statistics
// feasibility table.
type ScanConfig struct {
	Config
	ZMax int64
}

// RunScan executes the distributed scan-statistics evaluation
// (Algorithm 5): it returns the table feas[j][z] (1 ≤ j ≤ cfg.K,
// 0 ≤ z ≤ cfg.ZMax) of connected-subgraph feasibility, identical on all
// ranks. As in the sequential version, each target size j runs in its
// own 2^j iteration space (DESIGN.md §2).
func RunScan(world *comm.Comm, g *graph.Graph, cfg ScanConfig) ([][]bool, error) {
	r, _, err := runSolo(world, g, cfg.Config, mld.KindScan, mld.BatchLane{K: cfg.K, ZMax: cfg.ZMax})
	return r.Table, err
}

// RunMotif executes the distributed constrained-motif detection: does
// g contain a connected spec.K-vertex subgraph whose colors satisfy
// spec? The answer is identical on all ranks and matches
// mld.DetectMotif with the same seed bit-for-bit (the constrained
// assignment is a pure function of the seed and the graph's labels, so
// ranks rebuild it locally — randomness costs no communication).
func RunMotif(world *comm.Comm, g *graph.Graph, spec *mld.MotifSpec, cfg Config) (bool, error) {
	r, _, err := runSolo(world, g, cfg, mld.KindMotif, mld.BatchLane{Motif: spec})
	return r.Found, err
}

// RunMaxWeightPath is the distributed form of mld.MaxWeightPath: the
// maximum total vertex weight over simple k-paths, evaluated with the
// weight-indexed path DP under MIDAS's phase-group schedule. All ranks
// call collectively and receive the same (weight, found) answer.
func RunMaxWeightPath(world *comm.Comm, g *graph.Graph, cfg Config) (int64, bool, error) {
	r, _, err := runSolo(world, g, cfg, mld.KindMaxWeight, mld.BatchLane{K: cfg.K})
	return r.Weight, r.Found, err
}
