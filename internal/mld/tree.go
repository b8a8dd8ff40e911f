package mld

import (
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
)

// treeFamily is the k-tree template polynomial as a sweep-engine
// Family: one transfer step per decomposition node (leaves bind the
// base row, internal nodes combine their children over the neighbour
// values), and every lane folds the root slab in Finalize. All lanes
// of a group share one template shape — grouping by templateDigest is
// RunLanes' job. Only subtrees consumed as a Right child are read at
// neighbour rows, so only they are halo-exchanged.
type treeFamily struct {
	d       *graph.Decomposition
	isRight []bool
	base    []gf.Elem
	vals    [][]gf.Elem
}

func newTreeFamily(d *graph.Decomposition) *treeFamily {
	f := &treeFamily{d: d, isRight: make([]bool, len(d.Nodes))}
	for _, nd := range d.Nodes {
		if nd.Right >= 0 {
			f.isRight[nd.Right] = true
		}
	}
	return f
}

// templateDigest fingerprints a template's shape so batch lanes with
// the same template share one decomposition and one phase schedule
// (FNV over k and the adjacency lists, which NewTemplate normalizes).
func templateDigest(t *graph.Template) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(t.K())
	h *= prime
	for v := int32(0); v < int32(t.K()); v++ {
		for _, u := range t.Neighbors(v) {
			h ^= uint64(uint32(v))<<32 | uint64(uint32(u))
			h *= prime
		}
	}
	return h
}

func (f *treeFamily) CountPhases() bool { return true }

func (f *treeFamily) NewAssignment(n int, st *laneState, round int) *Assignment {
	return NewTreeAssignment(n, st.k, st.Seed, round)
}

func (f *treeFamily) BeginRound(st *laneState)          { st.reset(1) }
func (f *treeFamily) EndRound(st *laneState, round int) { st.foundOrDone(round) }

func (f *treeFamily) Alloc(e *groupRun) {
	n := e.g.NumVertices()
	f.base = e.opt.Arena.Grab(n * e.gr.stride)
	// one value buffer per internal decomposition node; leaves share base.
	f.vals = make([][]gf.Elem, len(f.d.Nodes))
	for j, nd := range f.d.Nodes {
		if nd.Left >= 0 {
			f.vals[j] = e.opt.Arena.Grab(n * e.gr.stride)
		}
	}
}

func (f *treeFamily) Free(e *groupRun) {
	e.opt.Arena.Put(f.base)
	for j, nd := range f.d.Nodes {
		if nd.Left >= 0 {
			e.opt.Arena.Put(f.vals[j])
		}
	}
	f.base, f.vals = nil, nil
}

func (f *treeFamily) InitRow(e *groupRun) {
	n := e.g.NumVertices()
	stride := e.gr.stride
	for i := 0; i < n; i++ {
		row := i * stride
		for _, st := range e.live {
			st.a.FillBase(f.base[row+st.off:row+st.off+st.nb], e.vid(int32(i)), e.q0, e.opt.NoGray)
		}
	}
}

func (f *treeFamily) Transfers(e *groupRun) int { return len(f.d.Nodes) }

func (f *treeFamily) Transfer(e *groupRun, step int) {
	j := step - 1
	nd := f.d.Nodes[j]
	if nd.Left < 0 {
		f.vals[j] = f.base
		return
	}
	opt, stride := e.opt, e.gr.stride
	live := e.live
	spans := liveSpans(live)
	one := CachedMulTable(1)
	e.level(j, e.levelElems()*laneWidth(live))
	left, right := f.vals[nd.Left], f.vals[nd.Right]
	dstAll := f.vals[j]
	e.sweepRows(func(lo, hi int32) {
		av := make([]gf.Elem, stride) // per-worker scratch, all lanes
		var sk int64
		for i := lo; i < hi; i++ {
			row := int(i) * stride
			for _, sp := range spans {
				clear(av[sp.Lo:sp.Hi])
			}
			for _, u := range e.g.Neighbors(i) {
				urow := int(u) * stride
				for _, st := range live {
					src := right[urow+st.off : urow+st.off+st.nb]
					if !gf.AnyNonZero(src) {
						sk++
						continue
					}
					t := one
					if !opt.NoFingerprints {
						// level key: the decomposition node index,
						// unique per subtree shape.
						t = st.a.EdgeTable(e.vid(u), e.vid(i), j)
					}
					gf.MulSliceTable16(av[st.off:st.off+st.nb], src, t)
				}
			}
			for _, sp := range spans {
				// P(i, H') = P(i, H'_1) · Σ_u r·P(u, H'_2)
				gf.HadamardInto(dstAll[row+sp.Lo:row+sp.Hi], left[row+sp.Lo:row+sp.Hi], av[sp.Lo:sp.Hi])
			}
		}
		e.addSkipped(sk)
	})
	opt.obsEnd()
}

func (f *treeFamily) Halo(e *groupRun, step int) (int, []Halo) {
	j := step - 1
	if f.d.Nodes[j].Left < 0 || !f.isRight[j] {
		return j, nil // leaves are base values, computable at every row
	}
	return j, []Halo{{Vals: f.vals[j], Stride: e.gr.stride, Spans: liveSpans(e.live)}}
}

func (f *treeFamily) Finalize(e *groupRun) {
	root := f.vals[f.d.Root]
	for _, st := range e.live {
		st.accumulate(root, e.gr.stride, e.rows)
	}
}

// DetectTree decides whether the tree template has a non-induced
// embedding in g, with one-sided failure probability at most
// opt.Epsilon. The template polynomial is built from the recursive
// decomposition of paper Fig 2 and evaluated exactly like the path
// polynomial, one subtree per DP "level".
func DetectTree(g *graph.Graph, tpl *graph.Template, opt Options) (bool, error) {
	r, err := solo(g, KindTree, BatchLane{Template: tpl}, opt)
	return r.Found, err
}

// treeRound evaluates the k-tree polynomial over all 2^k iterations for
// one assignment; a nonzero return means an embedding exists: one
// engine sweep of a single tree lane. A non-nil opt.Ctx aborts between
// iteration batches with the context's error.
func treeRound(g *graph.Graph, d *graph.Decomposition, a *Assignment, opt Options) (gf.Elem, error) {
	acc, err := sweepLane(g, newTreeFamily(d), &laneState{a: a}, opt)
	return acc[0], err
}
