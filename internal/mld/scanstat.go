package mld

import (
	"fmt"
	"sync/atomic"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// strata is the lane-private DP state of the weight-stratified
// families (scan, max-weight). The weight axis is lane-private (the cap
// differs per lane), so these families share the iteration sweep and
// the vertex fan-out but keep per-lane rows×N2 slabs per (level,
// weight) rather than a lane-contiguous layout.
type strata struct {
	nz   int           // weights 0..nz-1
	feas [][]bool      // scan: the feasibility table under construction
	base []gf.Elem     // x_i for the current phase
	p    [][][]gf.Elem // p[level][z]; max-weight ping-pongs p[1] and p[2]
}

// alloc grabs the lane's base slab and nz weight slabs for each of
// levels 1..top.
func (sx *strata) alloc(e *groupRun, top int) {
	n := e.g.NumVertices()
	sx.base = e.opt.Arena.Grab(n * e.n2)
	sx.p = make([][][]gf.Elem, top+1)
	for j := 1; j <= top; j++ {
		sx.p[j] = make([][]gf.Elem, sx.nz)
		for z := range sx.p[j] {
			sx.p[j][z] = e.opt.Arena.Grab(n * e.n2)
		}
	}
}

func (sx *strata) free(e *groupRun) {
	e.opt.Arena.Put(sx.base)
	for _, lvl := range sx.p {
		e.opt.Arena.Put(lvl...)
	}
	sx.base, sx.p = nil, nil
}

// initRow fills the phase's base values, zeroes level slab `level`, and
// seeds it with P(i, 1, w(i)) = x_i at every row with w(i) < nz.
func (sx *strata) initRow(e *groupRun, st *laneState, level int) {
	n2, nb := e.n2, st.nb
	for i := 0; i < e.g.NumVertices(); i++ {
		st.a.FillBase(sx.base[i*n2:i*n2+nb], e.vid(int32(i)), e.q0, e.opt.NoGray)
	}
	for _, buf := range sx.p[level] {
		clear(buf)
	}
	for i := 0; i < e.g.NumVertices(); i++ {
		if w := e.g.Weight(int32(i)); w < int64(sx.nz) {
			copy(sx.p[level][w][i*n2:i*n2+nb], sx.base[i*n2:i*n2+nb])
		}
	}
}

// foldStrata XORs the owned rows of one level's weight slabs into the
// lane's per-weight accumulator.
func (st *laneState) foldStrata(e *groupRun, slabs [][]gf.Elem) {
	for z, buf := range slabs {
		for i := 0; i < e.rows; i++ {
			for q := 0; q < st.nb; q++ {
				st.acc[z] ^= buf[i*e.n2+q]
			}
		}
	}
}

// strataHalos appends the lane's weight slabs of one level to out, for
// exchange.
func (st *laneState) strataHalos(e *groupRun, slabs [][]gf.Elem, out []Halo) []Halo {
	for _, buf := range slabs {
		out = append(out, Halo{Vals: buf, Stride: e.n2, Spans: []Span{{0, st.nb}}})
	}
	return out
}

// scanFamily is the weight-stratified scan polynomial for one subgraph
// size as a sweep-engine Family. A ScanTable call runs one engine pass
// per size j ≤ k, each with its own 2^j iteration space and round
// budget; the family keeps the table's historical phase-less
// accounting (no phase spans, Levels charged without DPOps).
type scanFamily struct {
	j    int   // subgraph size of this engine pass
	maxw int64 // max vertex weight: caps the per-stratum z loops
}

// maxWeight is the largest vertex weight: a subgraph on s vertices
// weighs at most s·maxw, so DP cells above that are identically zero.
func maxWeight(g *graph.Graph) int64 {
	var maxw int64
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		maxw = max(maxw, g.Weight(v))
	}
	return maxw
}

// weightsErr rejects graphs with negative vertex weights.
func weightsErr(g *graph.Graph) error {
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if w := g.Weight(v); w < 0 {
			return fmt.Errorf("mld: vertex %d has negative weight %d", v, w)
		}
	}
	return nil
}

func (f *scanFamily) CountPhases() bool { return false }

func (f *scanFamily) NewAssignment(n int, st *laneState, round int) *Assignment {
	return NewAssignment(n, f.j, st.Seed, round, tagScan)
}

func (f *scanFamily) BeginRound(st *laneState) { st.reset(st.strata.nz) }

func (f *scanFamily) EndRound(st *laneState, round int) {
	if feas := st.strata.feas; feas != nil {
		for z, t := range st.acc {
			feas[f.j][z] = feas[f.j][z] || t != 0
		}
	}
}

func (f *scanFamily) Alloc(e *groupRun) {
	for _, st := range e.gr.live {
		st.strata.alloc(e, f.j)
	}
}

func (f *scanFamily) Free(e *groupRun) {
	for _, st := range e.gr.live {
		st.strata.free(e)
	}
}

func (f *scanFamily) InitRow(e *groupRun) {
	for _, st := range e.live {
		for jj := 2; jj <= f.j; jj++ {
			for _, buf := range st.strata.p[jj] {
				clear(buf)
			}
		}
		st.strata.initRow(e, st, 1) // base case: P(i,1,w(i)) = x_i
	}
}

func (f *scanFamily) Transfers(e *groupRun) int { return f.j - 1 }

// Transfer runs one level of the inductive case — P(i,jj,z) =
// Σ_u Σ_{j'} Σ_{z'} r·P(i,j',z')·P(u,jj-j',z-z') — for every live
// lane's private weight strata, one vertex fan-out serving all lanes.
// Level jj reads only levels < jj, and each vertex writes only its own
// rows, so the vertex loop parallelizes per level.
func (f *scanFamily) Transfer(e *groupRun, step int) {
	jj := step + 1
	opt, n2 := e.opt, e.n2
	live := e.live
	opt.obsSpan(obs.LevelName, jj, "level")
	opt.Obs.Add(obs.Levels, int64(len(live)))
	var elems atomic.Int64
	e.sweepRows(func(lo, hi int32) {
		var sk, el int64
		for _, st := range live {
			p, nz, nb := st.strata.p, st.strata.nz, st.nb
			zcap := func(s int) int { return int(min(int64(s)*f.maxw, st.ZMax)) }
			for i := lo; i < hi; i++ {
				iLo, iHi := int(i)*n2, int(i)*n2+nb
				for _, u := range e.g.Neighbors(i) {
					uLo, uHi := int(u)*n2, int(u)*n2+nb
					for jp := 1; jp < jj; jp++ {
						jr := jj - jp
						for zp := 0; zp <= zcap(jp); zp++ {
							src1 := p[jp][zp][iLo:iHi]
							if !gf.AnyNonZero(src1) {
								sk++
								continue
							}
							var r gf.Elem = 1
							if !opt.NoFingerprints {
								r = st.a.ScanCoeff(e.vid(u), e.vid(i), jj, jp, int64(zp))
							}
							for zr := 0; zr <= zcap(jr) && zp+zr < nz; zr++ {
								src2 := p[jr][zr][uLo:uHi]
								if !gf.AnyNonZero(src2) {
									sk++
									continue
								}
								gf.MulHadamardAccumScaled(p[jj][zp+zr][iLo:iHi], src1, src2, r)
								el += int64(nb)
							}
						}
					}
				}
			}
		}
		e.addSkipped(sk)
		elems.Add(el)
	})
	e.compute(elems.Load())
	opt.obsEnd()
}

func (f *scanFamily) Halo(e *groupRun, step int) (int, []Halo) {
	jj := step + 1
	if jj == f.j {
		return jj, nil // the last level is only summed locally
	}
	var halos []Halo
	for _, st := range e.live {
		halos = st.strataHalos(e, st.strata.p[jj], halos)
	}
	return jj, halos
}

func (f *scanFamily) Finalize(e *groupRun) {
	for _, st := range e.live {
		st.foldStrata(e, st.strata.p[f.j])
	}
}

// ScanTable computes the connected-subgraph feasibility table behind the
// scan-statistics optimization (paper Section V-B): entry [j][z] is true
// iff g has a connected subgraph of exactly j vertices with total event
// weight exactly z, for 1 ≤ j ≤ k and 0 ≤ z ≤ zmax. Errors are
// one-sided (a true entry is always correct; a feasible entry is false
// with probability at most opt.Epsilon).
//
// The GF evaluation detects terms whose χ-support equals the number of
// colors, so each target size j runs with its own j-color iteration
// space of 2^j points; the total work Σ_j 2^j·poly ≤ 2^(k+1)·poly
// matches Lemma 3's O(2^k ...) bound (DESIGN.md §2).
//
// Vertex weights must be non-negative.
func ScanTable(g *graph.Graph, k int, zmax int64, opt Options) ([][]bool, error) {
	r, err := solo(g, KindScan, BatchLane{K: k, ZMax: zmax}, opt)
	return r.Table, err
}

// scanLanes runs RunLanes' scan passes: for each subgraph size j, every
// lane with k ≥ j sweeps the 2^j iteration space together, each lane
// on its own round budget for j. Unlike the detectors, a lane with
// k > n still yields a full table (sizes j > n stay infeasible).
func scanLanes(g *graph.Graph, lanes []BatchLane, res []LaneResult, opt Options, be Backend) ([]*laneState, error) {
	weightErr := weightsErr(g)
	sts, kmax := batchStates(lanes, MaxK, res, opt, func(l BatchLane) (int, error) {
		if l.ZMax < 0 {
			return 0, fmt.Errorf("mld: negative weight cap %d", l.ZMax)
		}
		return l.K, nil
	})
	for _, st := range sts {
		if weightErr != nil {
			st.done, st.err = true, weightErr
		}
		st.strata = &strata{nz: int(st.ZMax) + 1, feas: make([][]bool, st.k+1)}
		for j := 1; j <= st.k; j++ {
			st.strata.feas[j] = make([]bool, st.strata.nz)
		}
	}
	maxw := maxWeight(g)
	for j := 1; j <= kmax && j <= g.NumVertices(); j++ {
		var grpSts []*laneState
		for _, st := range sts {
			if st.k >= j && !st.done {
				st.iters = uint64(1) << uint(j)
				st.roundsTotal = laneOptions(opt, st.BatchLane).RoundsFor(j)
				grpSts = append(grpSts, st)
			}
		}
		if len(grpSts) == 0 {
			continue
		}
		gr := &famGroup{fam: &scanFamily{j: j, maxw: maxw}, sts: grpSts}
		if err := runGroups(g, []*famGroup{gr}, opt.batch(j), opt, be); err != nil {
			failOpen(sts, err)
			return sts, err
		}
	}
	return sts, nil
}

// CellFeasible answers a single feasibility question — does g contain a
// connected subgraph of exactly j vertices and weight exactly z? — by
// running only the size-j evaluation (the witness-extraction oracle, for
// which computing the whole table would waste a factor ~2).
func CellFeasible(g *graph.Graph, j int, z int64, opt Options) (bool, error) {
	if err := ValidateK(j); err != nil {
		return false, err
	}
	if z < 0 {
		return false, fmt.Errorf("mld: negative weight %d", z)
	}
	if j > g.NumVertices() {
		return false, nil
	}
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	rounds := opt.RoundsFor(j)
	for round := 0; round < rounds; round++ {
		a := NewAssignment(g.NumVertices(), j, opt.Seed, round, tagScan)
		row, err := scanRound(g, j, z, a, opt)
		if err != nil {
			return false, err
		}
		if row[z] != 0 {
			return true, nil
		}
	}
	return false, nil
}

// scanRound evaluates the scan polynomial for subgraph size exactly j
// over all 2^j iterations of one assignment, returning the per-weight
// field totals (nonzero at z ⇒ a connected size-j weight-z subgraph
// exists): one engine sweep of a single scan lane. A non-nil opt.Ctx
// aborts between iteration batches with the context's error.
func scanRound(g *graph.Graph, j int, zmax int64, a *Assignment, opt Options) ([]gf.Elem, error) {
	st := &laneState{BatchLane: BatchLane{ZMax: zmax}, a: a, strata: &strata{nz: int(zmax) + 1}}
	return sweepLane(g, &scanFamily{j: j, maxw: maxWeight(g)}, st, opt)
}

// BruteScanTable computes the exact feasibility table by enumerating all
// vertex combinations of size up to k and testing connectivity — the
// obviously-correct (and exponential) test oracle for ScanTable. Small
// graphs only.
func BruteScanTable(g *graph.Graph, k int, zmax int64) [][]bool {
	feas := make([][]bool, k+1)
	for j := 1; j <= k; j++ {
		feas[j] = make([]bool, zmax+1)
	}
	n := g.NumVertices()
	set := make([]int32, 0, k)
	var rec func(start int32)
	rec = func(start int32) {
		if j := len(set); j >= 1 {
			var w int64
			for _, v := range set {
				w += g.Weight(v)
			}
			if w <= zmax && graph.IsConnectedSubset(g, set) {
				feas[j][w] = true
			}
		}
		if len(set) == k {
			return
		}
		for v := start; v < int32(n); v++ {
			set = append(set, v)
			rec(v + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return feas
}
