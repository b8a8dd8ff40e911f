package mld

import (
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// pathFamily is the k-path polynomial as a sweep-engine Family: the
// init row is P(i,1) = x_i, transfer step j−1 is the path recurrence
// P(i,j) = x_i · Σ_u r·P(u,j−1) over two ping-pong slabs, and a lane
// folds its totals at its own final level (heterogeneous-k groups run
// to the deepest live k). Neighbours read each new level while a lane
// still needs the next one.
type pathFamily struct {
	base, prev, cur []gf.Elem
}

func (f *pathFamily) CountPhases() bool { return true }

func (f *pathFamily) NewAssignment(n int, st *laneState, round int) *Assignment {
	return NewPathAssignment(n, st.k, st.Seed, round)
}

func (f *pathFamily) BeginRound(st *laneState)          { st.reset(1) }
func (f *pathFamily) EndRound(st *laneState, round int) { st.foundOrDone(round) }

func (f *pathFamily) Alloc(e *groupRun) {
	n := e.g.NumVertices()
	f.base = e.opt.Arena.Grab(n * e.gr.stride)
	f.prev = e.opt.Arena.Grab(n * e.gr.stride)
	f.cur = e.opt.Arena.Grab(n * e.gr.stride)
}

func (f *pathFamily) Free(e *groupRun) {
	e.opt.Arena.Put(f.base, f.prev, f.cur)
	f.base, f.prev, f.cur = nil, nil, nil
}

func (f *pathFamily) InitRow(e *groupRun) {
	n := e.g.NumVertices()
	stride := e.gr.stride
	for i := 0; i < n; i++ {
		row := i * stride
		for _, st := range e.live {
			st.a.FillBase(f.base[row+st.off:row+st.off+st.nb], e.vid(int32(i)), e.q0, e.opt.NoGray)
		}
	}
	// level 1: P(i,1) = x_i, copied span-fused; k=1 lanes are done.
	spans := liveSpans(e.live)
	for i := 0; i < n; i++ {
		row := i * stride
		for _, sp := range spans {
			copy(f.prev[row+sp.Lo:row+sp.Hi], f.base[row+sp.Lo:row+sp.Hi])
		}
	}
	for _, st := range e.live {
		if st.k == 1 {
			st.accumulate(f.prev, stride, e.rows)
		}
	}
}

func (f *pathFamily) Transfers(e *groupRun) int { return maxK(e.live) - 1 }

// maxK is the deepest k among lanes.
func maxK(lanes []*laneState) int {
	k := 0
	for _, st := range lanes {
		k = max(k, st.k)
	}
	return k
}

// lanesFrom returns the lanes whose polynomial reaches level j.
func lanesFrom(lanes []*laneState, j int) []*laneState {
	var out []*laneState
	for _, st := range lanes {
		if st.k >= j {
			out = append(out, st)
		}
	}
	return out
}

func (f *pathFamily) Transfer(e *groupRun, step int) {
	j := step + 1
	opt, stride := e.opt, e.gr.stride
	lvl := lanesFrom(e.live, j)
	spans := liveSpans(lvl)
	one := CachedMulTable(1)
	e.level(j, e.levelElems()*laneWidth(lvl))
	e.sweepRows(func(lo, hi int32) {
		var sk int64
		for i := lo; i < hi; i++ {
			row := int(i) * stride
			for _, sp := range spans {
				clear(f.cur[row+sp.Lo : row+sp.Hi])
			}
			for _, u := range e.g.Neighbors(i) {
				urow := int(u) * stride
				for _, st := range lvl {
					src := f.prev[urow+st.off : urow+st.off+st.nb]
					if !gf.AnyNonZero(src) {
						sk++ // dead cell: all-zero vector contributes nothing
						continue
					}
					t := one
					if !opt.NoFingerprints {
						t = st.a.EdgeTable(e.vid(u), e.vid(i), j)
					}
					gf.MulSliceTable16(f.cur[row+st.off:row+st.off+st.nb], src, t)
				}
			}
			// P(i,j) = x_i · Σ_u r·P(u,j-1)
			for _, sp := range spans {
				gf.HadamardInto(f.cur[row+sp.Lo:row+sp.Hi], f.cur[row+sp.Lo:row+sp.Hi], f.base[row+sp.Lo:row+sp.Hi])
			}
		}
		e.addSkipped(sk)
	})
	opt.obsEnd()
	f.prev, f.cur = f.cur, f.prev
	for _, st := range lvl {
		if st.k == j {
			st.accumulate(f.prev, stride, e.rows)
		}
	}
}

func (f *pathFamily) Halo(e *groupRun, step int) (int, []Halo) {
	j := step + 1
	if next := lanesFrom(e.live, j+1); len(next) > 0 {
		return j, []Halo{{Vals: f.prev, Stride: e.gr.stride, Spans: liveSpans(next)}}
	}
	return j, nil
}

func (f *pathFamily) Finalize(e *groupRun) {}

// DetectPath decides whether g contains a simple path on k vertices,
// with failure probability at most opt.Epsilon (one-sided: a "no" answer
// for a graph with a k-path is possible with probability ≤ ε, a "yes"
// answer is always correct).
func DetectPath(g *graph.Graph, k int, opt Options) (bool, error) {
	if opt.Variant != VariantKoutis && opt.Variant != VariantGF8 {
		r, err := solo(g, KindPath, BatchLane{K: k}, opt)
		return r.Found, err
	}
	if err := ValidateK(k); err != nil {
		return false, err
	}
	if k > g.NumVertices() {
		return false, nil
	}
	if opt.Arena == nil {
		opt.Arena = NewArena() // share slabs across this call's rounds
	}
	// The integer and GF(2^8) variants keep their own round kernels (no
	// lane-contiguous tables); only the round accounting is shared.
	rounds := opt.RoundsFor(k)
	for round := 0; round < rounds; round++ {
		if err := opt.ctxErr(); err != nil {
			return false, err
		}
		opt.obsSpan(obs.RoundName, round, "round")
		opt.Obs.Add(obs.Rounds, 1)
		var hit bool
		switch opt.Variant {
		case VariantKoutis:
			hit = koutisPathRound(g, k, opt, round) != 0
		default:
			hit = pathRound8(g, k, opt, round) != 0
		}
		opt.obsEnd()
		if hit {
			return true, nil
		}
	}
	return false, nil
}

// pathRound evaluates the k-path polynomial over all 2^k iterations for
// one assignment and returns the accumulated field total (nonzero ⇒
// a k-path exists): one engine sweep of a single path lane. A non-nil
// opt.Ctx aborts between iteration batches with the context's error.
func pathRound(g *graph.Graph, a *Assignment, opt Options) (gf.Elem, error) {
	acc, err := sweepLane(g, &pathFamily{}, &laneState{a: a}, opt)
	return acc[0], err
}

// koutisPathRound is Algorithm 1 as printed: one full pass of 2^k
// iterations with arithmetic mod 2^(k+1), plus the integer fingerprints
// discussed in DESIGN.md §2. Returns the trace (nonzero ⇒ k-path).
//
// The modulus is a power of two, so every `% mod` reduces to masking
// with mod-1; intermediate products stay well inside uint64 (operands
// are < 2^(k+1) ≤ 2^27, so r·prev < 2^54). TestKoutisMaskMatchesModulo
// pins the trace against the literal-modulo form.
func koutisPathRound(g *graph.Graph, k int, opt Options, round int) uint64 {
	n := g.NumVertices()
	a := NewKoutisAssignment(n, k, opt.Seed, round)
	mask := a.Mod - 1
	iters := uint64(1) << uint(k)
	base := make([]uint64, n)
	prev := make([]uint64, n)
	cur := make([]uint64, n)
	var total uint64
	for t := uint64(0); t < iters; t++ {
		for i := 0; i < n; i++ {
			base[i] = a.Base(int32(i), t)
			prev[i] = base[i]
		}
		for j := 2; j <= k; j++ {
			for i := int32(0); i < int32(n); i++ {
				var acc uint64
				for _, u := range g.Neighbors(i) {
					r := uint64(1)
					if !opt.NoFingerprints {
						r = a.EdgeCoeff(u, i, j)
					}
					acc = (acc + r*prev[u]) & mask
				}
				cur[i] = (acc * base[i]) & mask
			}
			prev, cur = cur, prev
		}
		for i := 0; i < n; i++ {
			total = (total + prev[i]) & mask
		}
	}
	return total
}
