package mld

// Batched multi-query evaluation: one pass over the 2^k iteration
// space services several queries ("lanes") at once. Each lane keeps
// its own Assignment, so a batched lane's totals are bit-identical to
// the sequential run of the same (seed, round) — batching changes only
// *when* work happens, never *what* is computed (TestDetectPathBatch-
// MatchesSequential pins this).
//
// Two properties make the sharing sound (docs/BATCHING.md derives
// both):
//
//   - k-prefix reuse: gray(q) restricted to q < 2^k' is a bijection on
//     the masks over the low k' columns, so the first 2^k' iterations
//     of a deeper sweep enumerate exactly a k'-lane's whole iteration
//     space. A k'<k lane therefore accumulates only over that prefix
//     and then retires from the phase loop.
//   - lane independence: the DP state of lane l lives in its own
//     contiguous block of each vertex row (stride = lanes × N2, lane l
//     at offset l·N2), so the nibble-split MulTable kernels stream one
//     vertex row across all live lanes with no per-lane dispatch
//     beyond the per-(edge, lane) table lookup, and zero-fill /
//     Hadamard steps fuse across adjacent live lanes.
//
// A cancelled lane (its BatchLane.Ctx expired) is masked out at the
// next phase boundary: its LaneResult carries the context error and
// the remaining lanes keep running — one impatient query does not
// abort the flight.

import (
	"context"
	"errors"
	"fmt"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
)

// MaxBatchLanes bounds the lanes of one batch. The distributed engine
// carries the per-lane cancellation state as one uint64 bitmask in its
// per-step all-reduce, so the bound is 64.
const MaxBatchLanes = 64

// Kind selects the polynomial family of a RunLanes batch.
type Kind string

// The families RunLanes evaluates.
const (
	KindPath      Kind = "path"
	KindTree      Kind = "tree"
	KindScan      Kind = "scan"
	KindMotif     Kind = "motif"
	KindMaxWeight Kind = "maxweight"
)

// BatchLane is one query of a batch: the target plus the per-lane
// seeding, amplification, and cancellation knobs that the sequential
// entry points take via Options. Fields irrelevant to the batch kind
// (Template for paths, ZMax for paths/trees) are ignored.
type BatchLane struct {
	K        int             // subgraph size (ignored for tree/motif lanes: the template/spec decides)
	Template *graph.Template // tree lanes only
	ZMax     int64           // scan lanes only: weight cap
	Motif    *MotifSpec      // motif lanes only: color-multiset constraint
	Seed     uint64
	Epsilon  float64         // 0 → the batch Options' default
	Rounds   int             // 0 → derived from Epsilon
	Ctx      context.Context // per-lane cancellation; nil = run to completion
}

func (l BatchLane) ctxErr() error {
	if l.Ctx == nil {
		return nil
	}
	return l.Ctx.Err()
}

// LaneResult is one lane's outcome. Found/Table/Weight match the
// sequential evaluator byte-for-byte; Rounds/Phases count the lane's
// share of the batched execution (phases at the *batch's* iteration
// width on the global phase schedule, which TotalPhases also uses, so
// Phases < TotalPhases still proves an unfinished sweep). Err is the
// lane's own failure — typically its context error after a mid-flight
// cancel — and leaves other lanes untouched.
type LaneResult struct {
	Found       bool
	Table       [][]bool // scan lanes
	Weight      int64    // max-weight lanes: the heaviest k-path found
	Rounds      int64
	Phases      int64
	TotalPhases int64
	Err         error
}

// laneOptions is the sequential-equivalent Options for one lane: the
// batch Options with the lane's seeding spliced in. Used by RoundsFor
// (so round counts match a sequential run exactly) and by the
// non-GF16 fallback path.
func laneOptions(opt Options, l BatchLane) Options {
	opt.Seed = l.Seed
	opt.Epsilon = l.Epsilon
	opt.Rounds = l.Rounds
	opt.Ctx = l.Ctx
	return opt
}

// laneState tracks one lane through the round/phase loops.
type laneState struct {
	BatchLane
	idx         int // index into the results slice
	k           int
	iters       uint64 // 2^k: the lane's Gray prefix
	roundsTotal int
	a           *Assignment
	off         int       // element offset of the lane's block in a vertex row
	nb          int       // live width this phase
	acc         []gf.Elem // round accumulator: one total, or one per weight
	found       bool
	weight      int64 // max-weight lanes: best weight so far
	done        bool
	err         error
	roundsRun   int64
	phases      int64
	strata      *strata // scan and max-weight lanes
}

// reset sizes the lane's round accumulator to n zeroed totals.
func (st *laneState) reset(n int) {
	if cap(st.acc) < n {
		st.acc = make([]gf.Elem, n)
	}
	st.acc = st.acc[:n]
	clear(st.acc)
}

// Span is a contiguous element range [Lo, Hi) within a vertex row
// covering one or more adjacent live lanes, the unit of the fused
// zero-fill / copy / Hadamard steps and of halo packing.
type Span struct{ Lo, Hi int }

// liveSpans merges the blocks of the given lanes (ascending offsets)
// into maximal contiguous spans. A lane in its final, short phase
// (nb < N2) ends a span: the gap to the next lane's offset is dead.
func liveSpans(lanes []*laneState) []Span {
	out := make([]Span, 0, len(lanes))
	for _, st := range lanes {
		lo, hi := st.off, st.off+st.nb
		if n := len(out); n > 0 && out[n-1].Hi == lo {
			out[n-1].Hi = hi
		} else {
			out = append(out, Span{lo, hi})
		}
	}
	return out
}

// accumulate folds the lane's finished DP level, over the first rows
// rows of a lane-contiguous slab, into its round total.
func (st *laneState) accumulate(vals []gf.Elem, stride, rows int) {
	t := st.acc[0]
	for i := 0; i < rows; i++ {
		row := i*stride + st.off
		for q := 0; q < st.nb; q++ {
			t ^= vals[row+q]
		}
	}
	st.acc[0] = t
}

// foundOrDone is EndRound for the found/not-found families: a nonzero
// total is a hit, otherwise the lane runs until its round budget ends.
func (st *laneState) foundOrDone(round int) {
	if st.acc[0] != 0 {
		st.found, st.done = true, true
	} else if round+1 >= st.roundsTotal {
		st.done = true
	}
}

// batchStates validates lanes and builds the shared state. Lanes whose
// k exceeds the vertex count resolve immediately (Found=false, like
// the sequential entry points); invalid lanes resolve to their error.
func batchStates(lanes []BatchLane, n int, res []LaneResult, opt Options, kOf func(BatchLane) (int, error)) ([]*laneState, int) {
	sts := make([]*laneState, 0, len(lanes))
	kmax := 0
	for i, l := range lanes {
		k, err := kOf(l)
		if err == nil {
			err = ValidateK(k)
		}
		if err != nil {
			res[i].Err = err
			continue
		}
		if k > n {
			continue // Found=false, no work
		}
		st := &laneState{BatchLane: l, idx: i, k: k, iters: uint64(1) << uint(k)}
		st.roundsTotal = laneOptions(opt, l).RoundsFor(k)
		sts = append(sts, st)
		kmax = max(kmax, k)
	}
	return sts, kmax
}

// failOpen marks every unresolved lane with err (a batch-wide abort:
// the Options context expired, killing the whole flight).
func failOpen(sts []*laneState, err error) {
	for _, st := range sts {
		if !st.done {
			st.done, st.err = true, err
		}
	}
}

// RunLanes answers len(lanes) independent queries of one kind in one
// batched evaluation: results (and the per-round randomness behind
// them) are identical to the solo entry point called once per lane
// with the lane's seeding. With a nil Backend the evaluation runs in
// this process; with one, every rank of the backend's world calls
// RunLanes with the same arguments (g is the whole graph) and all
// ranks return the same results. Only the GF(2^16) arithmetic has
// lane-contiguous kernels; opt.Variant is ignored.
func RunLanes(g *graph.Graph, kind Kind, lanes []BatchLane, opt Options, be Backend) ([]LaneResult, error) {
	if len(lanes) == 0 {
		return nil, nil
	}
	if len(lanes) > MaxBatchLanes {
		return nil, fmt.Errorf("mld: batch of %d lanes exceeds MaxBatchLanes=%d", len(lanes), MaxBatchLanes)
	}
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	res := make([]LaneResult, len(lanes))
	n := g.NumVertices()
	laneK := func(l BatchLane) (int, error) { return l.K, nil }
	var sts []*laneState
	var groups []*famGroup
	var kmax int
	var batchErr error
	switch kind {
	case KindPath:
		sts, kmax = batchStates(lanes, n, res, opt, laneK)
		groups = []*famGroup{{fam: &pathFamily{}, sts: sts}}
	case KindMotif:
		// Constraints are per-lane zero patterns, not a layout, so
		// heterogeneous specs and sizes share one group.
		sts, kmax = batchStates(lanes, n, res, opt, func(l BatchLane) (int, error) {
			if err := l.Motif.Validate(); err != nil {
				return 0, err
			}
			return l.Motif.K, nil
		})
		groups = []*famGroup{{fam: &motifFamily{g: g}, sts: sts}}
	case KindMaxWeight:
		maxw, werr := maxWeight(g), weightsErr(g)
		sts, kmax = batchStates(lanes, n, res, opt, func(l BatchLane) (int, error) {
			if zmax := int64(l.K) * maxw; werr == nil && (zmax+1)*int64(n) > maxWeightGrid {
				return 0, fmt.Errorf("mld: weight grid %d too large; round weights first (scanstat.RoundWeights)", zmax)
			}
			return l.K, werr
		})
		for _, st := range sts {
			st.strata = &strata{nz: st.k*int(maxw) + 1}
		}
		groups = []*famGroup{{fam: &maxWeightFamily{maxw: maxw}, sts: sts}}
	case KindTree:
		sts, kmax = batchStates(lanes, n, res, opt, func(l BatchLane) (int, error) {
			if l.Template == nil {
				return 0, errors.New("mld: tree lane has no template")
			}
			return l.Template.K(), nil
		})
		// Lanes sharing a template shape share one decomposition, one
		// buffer set and one group; all groups interleave in one sweep.
		byDigest := make(map[uint64]*famGroup)
		for _, st := range sts {
			dig := templateDigest(st.Template)
			gr, ok := byDigest[dig]
			if !ok {
				gr = &famGroup{fam: newTreeFamily(st.Template.Decompose())}
				byDigest[dig] = gr
				groups = append(groups, gr)
			}
			gr.sts = append(gr.sts, st)
		}
	case KindScan:
		sts, batchErr = scanLanes(g, lanes, res, opt, be)
	default:
		return nil, fmt.Errorf("mld: unknown batch kind %q", kind)
	}
	if groups != nil {
		batchErr = runGroups(g, groups, opt.batch(kmax), opt, be)
	}
	for _, st := range sts {
		r := &res[st.idx]
		r.Found, r.Weight, r.Rounds, r.Phases, r.Err = st.found, st.weight, st.roundsRun, st.phases, st.err
		n2 := uint64(opt.batch(kmax)) // phases count at the batch's width
		if kind == KindScan {
			n2 = uint64(opt.batch(st.k)) // each size sweeps at its own width
		}
		r.TotalPhases = int64(((uint64(1) << uint(st.k)) + n2 - 1) / n2)
		if st.strata != nil && st.err == nil {
			r.Table = st.strata.feas // nil for max-weight; an aborted scan lane yields none
		}
	}
	return res, batchErr
}

// solo runs one lane seeded from opt: the sequential entry points are
// a batch of one, byte-identical to the batched lane.
func solo(g *graph.Graph, kind Kind, l BatchLane, opt Options) (LaneResult, error) {
	l.Seed, l.Epsilon, l.Rounds = opt.Seed, opt.Epsilon, opt.Rounds
	res, err := RunLanes(g, kind, []BatchLane{l}, opt, nil)
	if err != nil {
		return LaneResult{}, err
	}
	return res[0], res[0].Err
}

// DetectPathBatch answers len(lanes) independent k-path queries in one
// batched evaluation (RunLanes with KindPath). Only the GF(2^16)
// variant has lane-contiguous kernels; other variants fall back to
// sequential per-lane runs.
func DetectPathBatch(g *graph.Graph, lanes []BatchLane, opt Options) ([]LaneResult, error) {
	if opt.Variant == VariantGF16 || len(lanes) == 0 || len(lanes) > MaxBatchLanes {
		return RunLanes(g, KindPath, lanes, opt, nil)
	}
	res := make([]LaneResult, len(lanes))
	for i, l := range lanes {
		found, err := DetectPath(g, l.K, laneOptions(opt, l))
		res[i] = LaneResult{Found: found, Err: err}
	}
	return res, nil
}

// DetectTreeBatch answers tree-embedding queries in one batched
// evaluation; lanes may carry different templates (grouped by shape).
func DetectTreeBatch(g *graph.Graph, lanes []BatchLane, opt Options) ([]LaneResult, error) {
	return RunLanes(g, KindTree, lanes, opt, nil)
}

// ScanTableBatch computes independent scan-statistics feasibility
// tables (see ScanTable) in one batched evaluation.
func ScanTableBatch(g *graph.Graph, lanes []BatchLane, opt Options) ([]LaneResult, error) {
	return RunLanes(g, KindScan, lanes, opt, nil)
}

// DetectMotifBatch answers motif queries (each lane's Motif field
// carries its spec) in one batched evaluation.
func DetectMotifBatch(g *graph.Graph, lanes []BatchLane, opt Options) ([]LaneResult, error) {
	return RunLanes(g, KindMotif, lanes, opt, nil)
}
