package mld

import (
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
)

// MaxWeightPath solves the weighted variant of Problem 3(2) from the
// paper for paths: among all simple paths on exactly k vertices, find
// the maximum total vertex weight (and whether any k-path exists at
// all). The DP augments the k-path evaluation with a weight index, like
// the scan-statistics polynomial but path-shaped:
//
//	P(i, 1, w(i)) = x_i
//	P(i, j, z)    = x_i · Σ_{u∈N(i)} r(u,i,j) · P(u, j-1, z - w(i))
//
// so cell (k, z) has a multilinear term iff a k-path of weight exactly z
// exists; the answer is the largest z with a nonzero total over all
// rounds. Cost grows by a factor of the weight range over plain
// detection (paper Lemma 3's W factor); use scanstat.RoundWeights to
// keep the grid small.
//
// Errors are one-sided per round: the reported weight is always
// realized by some k-path; with probability ≤ opt.Epsilon a
// larger-weight path may be missed.
func MaxWeightPath(g *graph.Graph, k int, opt Options) (int64, bool, error) {
	r, err := solo(g, KindMaxWeight, BatchLane{K: k}, opt)
	return r.Weight, r.Found, err
}

// maxWeightGrid bounds (zmax+1)·n, the cells of one weight-stratified
// DP level.
const maxWeightGrid = 1 << 26

// maxWeightFamily is the weight-indexed path polynomial as a
// sweep-engine Family. Each lane keeps private strata (its weight cap
// is k·maxw) ping-ponging between p[1] (the previous level) and p[2];
// level j populates weights up to min(j·maxw, zmax), and neighbours
// read those strata of every level below the lane's k.
type maxWeightFamily struct {
	maxw int64
}

func (f *maxWeightFamily) CountPhases() bool { return true }

func (f *maxWeightFamily) NewAssignment(n int, st *laneState, round int) *Assignment {
	return NewMaxWeightAssignment(n, st.k, st.Seed, round)
}

func (f *maxWeightFamily) BeginRound(st *laneState) { st.reset(st.strata.nz) }

// EndRound keeps the heaviest weight with a nonzero total; every round
// runs, since a later round may find a heavier path.
func (f *maxWeightFamily) EndRound(st *laneState, round int) {
	for z := len(st.acc) - 1; z >= 0; z-- {
		if st.acc[z] != 0 {
			st.weight = max(st.weight, int64(z))
			st.found = true
			break
		}
	}
	st.done = round+1 >= st.roundsTotal
}

func (f *maxWeightFamily) Alloc(e *groupRun) {
	for _, st := range e.gr.live {
		st.strata.alloc(e, 2)
	}
}

func (f *maxWeightFamily) Free(e *groupRun) {
	for _, st := range e.gr.live {
		st.strata.free(e)
	}
}

func (f *maxWeightFamily) InitRow(e *groupRun) {
	for _, st := range e.live {
		st.strata.initRow(e, st, 1)
		if st.k == 1 {
			st.foldStrata(e, st.strata.p[1])
		}
	}
}

func (f *maxWeightFamily) Transfers(e *groupRun) int { return maxK(e.live) - 1 }

// zhi is the heaviest weight a lane's level-j pieces can carry.
func (f *maxWeightFamily) zhi(st *laneState, j int) int {
	return int(min(int64(j)*f.maxw, int64(st.strata.nz-1)))
}

func (f *maxWeightFamily) Transfer(e *groupRun, step int) {
	j := step + 1
	opt, n2 := e.opt, e.n2
	lvl := lanesFrom(e.live, j)
	var elems int64
	for _, st := range lvl {
		elems += int64(st.nb) * int64(f.zhi(st, j)+1)
	}
	e.level(j, e.levelElems()*elems)
	one := CachedMulTable(1)
	for _, st := range lvl {
		prev, cur, base := st.strata.p[1], st.strata.p[2], st.strata.base
		zhi, zPrev := f.zhi(st, j), f.zhi(st, j-1) // prev is only valid up to zPrev
		for _, buf := range cur[:zhi+1] {
			clear(buf)
		}
		e.sweepRows(func(lo, hi int32) {
			var sk int64
			for i := lo; i < hi; i++ {
				wi := int(e.g.Weight(i))
				iLo, iHi := int(i)*n2, int(i)*n2+st.nb
				for _, u := range e.g.Neighbors(i) {
					// One coefficient covers the whole weight column.
					t := one
					if !opt.NoFingerprints {
						t = st.a.EdgeTable(e.vid(u), e.vid(i), j)
					}
					uLo, uHi := int(u)*n2, int(u)*n2+st.nb
					for z := wi; z <= zhi && z-wi <= zPrev; z++ {
						src := prev[z-wi][uLo:uHi]
						if !gf.AnyNonZero(src) {
							sk++
							continue
						}
						gf.MulSliceTable16(cur[z][iLo:iHi], src, t)
					}
				}
				for z := wi; z <= zhi; z++ {
					gf.HadamardInto(cur[z][iLo:iHi], cur[z][iLo:iHi], base[iLo:iHi])
				}
			}
			e.addSkipped(sk)
		})
		st.strata.p[1], st.strata.p[2] = cur, prev
		if st.k == j {
			st.foldStrata(e, cur)
		}
	}
	opt.obsEnd()
}

func (f *maxWeightFamily) Halo(e *groupRun, step int) (int, []Halo) {
	j := step + 1
	var halos []Halo
	for _, st := range lanesFrom(e.live, j+1) {
		halos = st.strataHalos(e, st.strata.p[1][:f.zhi(st, j)+1], halos)
	}
	return j, halos
}

func (f *maxWeightFamily) Finalize(e *groupRun) {}

// BruteMaxWeightPath is the exhaustive oracle for MaxWeightPath.
func BruteMaxWeightPath(g *graph.Graph, k int) (int64, bool) {
	n := g.NumVertices()
	if k < 1 || k > n {
		return 0, false
	}
	used := make([]bool, n)
	best := int64(-1)
	var dfs func(v int32, depth int, w int64)
	dfs = func(v int32, depth int, w int64) {
		if depth == k {
			if w > best {
				best = w
			}
			return
		}
		for _, u := range g.Neighbors(v) {
			if !used[u] {
				used[u] = true
				dfs(u, depth+1, w+g.Weight(u))
				used[u] = false
			}
		}
	}
	for s := int32(0); s < int32(n); s++ {
		used[s] = true
		dfs(s, 1, g.Weight(s))
		used[s] = false
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
