package mld

// The polynomial-family engine: ONE implementation of the round loop,
// the Gray-code phase sweep, the batch lane layout, arena slab
// recycling, and per-lane cancellation, shared by every detection
// workload, sequential or distributed. A Family contributes only what
// is mathematically its own — how a round's randomness is derived, how
// the DP slabs are laid out, the init row, the per-level transfer, the
// slabs its neighbours read later, and the finalize/fold steps — while
// the engine owns everything else.
//
// Execution model: lanes (laneState) are clustered into groups
// (famGroup), each group owning one Family instance and one
// lane-contiguous buffer layout. Solo evaluators are the one-lane,
// one-group special case, which keeps their outputs and observability
// byte-identical to a batch of one (golden_test.go pins this). Per
// round, every group's live lanes draw fresh assignments; per phase
// q0, the engine masks cancelled lanes, retires lanes past their Gray
// prefix, and hands the survivors to the family as InitRow →
// Transfer* → Finalize.
//
// A Backend runs the same loop as one rank of a distributed world
// (internal/core implements it; a nil Backend is the sequential
// engine). Its seams are:
//
//   - Local view. The engine sweeps the leading Owned rows of the
//     rank's slot-indexed local graph; the rows after them are ghost
//     copies of remote neighbours. Assignments are keyed by global id
//     (View.Global), so every rank draws the sequential randomness.
//   - Phase-step ownership. Group gid of the world's phase groups runs
//     phase s·groups+gid at step s. After each step comes one
//     collective sync: a plain barrier when nothing can cancel,
//     otherwise an OR all-reduce of [batch flag, lane mask], so every
//     rank retires the same lanes at the same step.
//   - Exchange after Transfer. Family.Halo declares which slabs of the
//     new level neighbours read later; the backend ships the owned rows
//     of all of them to each peer in one message and fills the ghosts.
//   - Round reduce. One XOR all-reduce over the live lanes'
//     accumulators runs before EndRound judges them.

import (
	"context"
	"sync/atomic"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// Family is one polynomial family (k-path, k-tree, scan-statistics,
// constrained motif, max-weight path) as seen by the sweep engine. One
// instance serves one lane group for the duration of a run;
// implementations keep their DP slabs as instance state between Alloc
// and Free.
type Family interface {
	// NewAssignment derives one lane's randomness for a round — a pure
	// function of (lane seed, round, family tag), so distributed ranks
	// and batched lanes reproduce solo runs exactly. n is the global
	// vertex count.
	NewAssignment(n int, st *laneState, round int) *Assignment

	// BeginRound sizes and clears a lane's round accumulator (st.acc).
	BeginRound(st *laneState)

	// CountPhases reports whether the engine charges phase spans and
	// per-lane phase counters for this family. The scan table keeps
	// its historical phase-less accounting.
	CountPhases() bool

	// Alloc grabs the group's DP slabs for one round's sweep from the
	// options arena; Free returns them. The group's live lanes and
	// stride are fixed when Alloc runs.
	Alloc(e *groupRun)
	Free(e *groupRun)

	// InitRow computes the level-1 DP row for the phase's live lanes
	// at every row, ghosts included (base values x_i(gray(q0+q)) and
	// whatever the family layers on them), and folds any lane whose
	// polynomial is a single level.
	InitRow(e *groupRun)

	// Transfers is the number of per-level transfer steps for the
	// phase's live lane set (evaluated once per phase).
	Transfers(e *groupRun) int

	// Transfer runs transfer step ∈ [1, Transfers] — one DP level over
	// the swept rows — folding any lane that finishes at this level.
	Transfer(e *groupRun, step int)

	// Halo names the slabs written by Transfer(step) that later levels
	// read at neighbour rows, with the level label of the exchange; nil
	// when none. Only a Backend calls it.
	Halo(e *groupRun, step int) (level int, halos []Halo)

	// Finalize folds whatever the transfer steps did not (families
	// whose lanes all finish at the last level fold here).
	Finalize(e *groupRun)

	// EndRound inspects a lane's round accumulator after a completed
	// sweep: families with found/not-found semantics mark the lane
	// found or done, table families fold the totals and run on.
	EndRound(st *laneState, round int)
}

// Backend runs the engine as one rank of a distributed world. Every
// rank passes the same lanes and options; the backend supplies the
// rank's local view and the collectives that keep the ranks in
// lockstep (see the file comment).
type Backend interface {
	// View is the rank's share of the graph and of the phase schedule,
	// read once per engine pass.
	View() View

	// Barrier and AllreduceOr are the per-step sync, AllreduceXor the
	// round reduce; each is a world collective.
	Barrier()
	AllreduceOr(vals []uint64) []uint64
	AllreduceXor(vals []uint64) []uint64

	// Exchange sends the owned rows of every halo to each peer part in
	// one message and fills the ghost rows with the peers' values.
	Exchange(level int, halos []Halo)

	// Compute charges one level's elems DP element operations to the
	// rank's modeled clock.
	Compute(elems int64)

	// Label names the round or phase the rank is in.
	Label(name string)

	// Progress reports done of the sweep's total phases finished
	// world-wide, after each phase step.
	Progress(done, total int64)
}

// View is a rank's share of the graph and of the phase schedule.
type View struct {
	Local  *graph.Graph // owned rows first, then ghosts with no adjacency
	Owned  int          // leading rows of Local the rank sweeps
	Global []int32      // local row → global vertex id
	Groups int          // phase groups of the world
	Group  int          // this rank's group
}

// Halo is one slab whose owned rows neighbours read: the elements of
// Spans in each row of a rows × Stride slab.
type Halo struct {
	Vals   []gf.Elem
	Stride int
	Spans  []Span
}

// famGroup is one lane cluster sharing a Family instance and a
// lane-contiguous layout (lane i of the round's live set at element
// offset i·n2 of every vertex row, stride = live lanes × n2).
type famGroup struct {
	fam Family
	sts []*laneState // every lane of the group

	// per-round state, owned by the engine
	live      []*laneState // lanes active this round
	phaseLive []*laneState // lanes surviving the current phase's masks
	stride    int
	itersLive uint64 // deepest live lane's 2^k this round
	alloced   bool
}

// engine is one run's sweep state: the swept graph (the whole graph,
// or a rank's local view), the phase schedule, and the backend.
type engine struct {
	g           *graph.Graph
	n           int     // global vertex count (assignment size)
	rows        int     // leading rows of g the engine sweeps
	global      []int32 // row → global vertex id; nil = identity
	groups, gid int
	n2          int
	opt         Options
	be          Backend
	lanes       []*laneState // every lane: bit i of the sync mask is lanes[i]
	cancellable bool         // a context exists, so syncs carry flags
	skipped     atomic.Int64 // dead cells this sweep
}

func newEngine(g *graph.Graph, groups []*famGroup, n2 int, opt Options, be Backend) *engine {
	e := &engine{g: g, n: g.NumVertices(), rows: g.NumVertices(), groups: 1, n2: n2, opt: opt, be: be}
	if be != nil {
		v := be.View()
		e.g, e.rows, e.global, e.groups, e.gid = v.Local, v.Owned, v.Global, v.Groups, v.Group
	}
	e.cancellable = opt.Ctx != nil
	for _, gr := range groups {
		for _, st := range gr.sts {
			e.lanes = append(e.lanes, st)
			e.cancellable = e.cancellable || st.Ctx != nil
		}
	}
	return e
}

// groupRun is the engine→family call context for one group: the
// engine, the group's layout, and the current phase's live lanes.
type groupRun struct {
	*engine
	gr   *famGroup
	q0   uint64
	live []*laneState // live lanes of the current phase
}

// vid maps a swept row to the global vertex id assignments are keyed by.
func (e *engine) vid(v int32) int32 {
	if e.global == nil {
		return v
	}
	return e.global[v]
}

// sweepRows runs fn over the swept rows (see Options.parallelVertices).
func (e *engine) sweepRows(fn func(lo, hi int32)) { e.opt.parallelVertices(e.g, e.rows, fn) }

// levelElems is the analytic per-iteration element count of one DP
// level: Σdeg + n over the swept rows (see docs/OBSERVABILITY.md).
func (e *engine) levelElems() int64 { return e.g.AdjOffset(int32(e.rows)) + int64(e.rows) }

// laneWidth is the summed live element width of lanes.
func laneWidth(lanes []*laneState) int64 {
	var w int64
	for _, st := range lanes {
		w += int64(st.nb)
	}
	return w
}

// level opens level idx's span and charges its elems DP operations;
// pair with e.opt.obsEnd().
func (e *engine) level(idx int, elems int64) {
	e.opt.obsSpan(obs.LevelName, idx, "level")
	e.opt.obsLevel(elems)
	e.compute(elems)
}

// compute charges elems DP operations to the backend's modeled clock.
func (e *engine) compute(elems int64) {
	if e.be != nil {
		e.be.Compute(elems)
	}
}

// span opens a round or phase span, labelling the rank with it.
func (e *engine) span(name func(int) string, idx int, cat string) {
	if e.be != nil {
		e.be.Label(name(idx))
	}
	e.opt.obsSpan(name, idx, cat)
}

// addSkipped folds a worker's dead-cell count into the sweep counter.
func (e *engine) addSkipped(sk int64) {
	if sk != 0 {
		e.skipped.Add(sk)
	}
}

// runGroups is the engine's round loop: per round, collect each
// group's active lanes, draw assignments, sweep the iteration space
// once for all groups jointly, reduce the accumulators across ranks,
// then let each family judge its lanes' totals. A batch-wide context
// abort fails every unresolved lane open with the context error.
func runGroups(g *graph.Graph, groups []*famGroup, n2 int, opt Options, be Backend) error {
	e := newEngine(g, groups, n2, opt, be)
	maxRounds := 0
	for _, st := range e.lanes {
		maxRounds = max(maxRounds, st.roundsTotal)
	}
	var batchErr error
	var phasesDone int64 // cumulative across rounds, fed to opt.Progress
	for round := 0; round < maxRounds && batchErr == nil; round++ {
		if be != nil && e.cancellable {
			if batchErr = e.sync(); batchErr != nil {
				break
			}
		}
		activeTotal := 0
		for _, gr := range groups {
			gr.live = gr.live[:0]
			for _, st := range gr.sts {
				if !st.done && round < st.roundsTotal {
					gr.live = append(gr.live, st)
				}
			}
			activeTotal += len(gr.live)
		}
		if activeTotal == 0 {
			break
		}
		if be == nil {
			if batchErr = opt.ctxErr(); batchErr != nil {
				break
			}
		}
		e.span(obs.RoundName, round, "round")
		opt.Obs.Add(obs.Rounds, int64(activeTotal))
		for _, gr := range groups {
			for _, st := range gr.live {
				st.a = gr.fam.NewAssignment(e.n, st, round)
				gr.fam.BeginRound(st)
				st.roundsRun++
			}
		}
		batchErr = e.sweep(groups, &phasesDone)
		if batchErr == nil && be != nil {
			e.reduce(groups)
		}
		opt.obsEnd()
		if batchErr != nil {
			break
		}
		for _, gr := range groups {
			for _, st := range gr.live {
				if !st.done { // a lane cancelled mid-round has a void accumulator
					gr.fam.EndRound(st, round)
				}
			}
		}
	}
	if batchErr != nil {
		failOpen(e.lanes, batchErr)
	}
	return batchErr
}

// sweep runs one round's joint pass over the iteration space: phase
// q0 of every group with live work runs before any group advances to
// the next phase, so interleaved groups share the sweep. A backend
// rank runs only its group's phase of each step, then syncs.
func (e *engine) sweep(groups []*famGroup, done *int64) error {
	var itersMax uint64
	for _, gr := range groups {
		gr.alloced = false
		if len(gr.live) == 0 {
			continue
		}
		gr.stride = len(gr.live) * e.n2
		gr.itersLive = 0
		for i, st := range gr.live {
			st.off = i * e.n2
			gr.itersLive = max(gr.itersLive, st.iters)
		}
		itersMax = max(itersMax, gr.itersLive)
		gr.fam.Alloc(&groupRun{engine: e, gr: gr})
		gr.alloced = true
	}
	defer func() {
		for _, gr := range groups {
			if gr.alloced {
				gr.fam.Free(&groupRun{engine: e, gr: gr})
				gr.alloced = false
			}
		}
	}()
	e.skipped.Store(0)
	defer func() { e.opt.Obs.Add(obs.CellsSkipped, e.skipped.Load()) }()

	n2, groupsU := uint64(e.n2), uint64(e.groups)
	numPhases := (itersMax + n2 - 1) / n2
	for s := uint64(0); s < (numPhases+groupsU-1)/groupsU; s++ {
		if e.be == nil {
			if err := e.opt.ctxErr(); err != nil {
				return err
			}
		}
		if ph := s*groupsU + uint64(e.gid); ph < numPhases {
			e.phase(groups, ph, done)
		}
		// Lane phase counters follow the global schedule, so they are
		// identical on every rank and to a sequential run.
		for _, gr := range groups {
			if !gr.fam.CountPhases() {
				continue
			}
			for ph := s * groupsU; ph < min((s+1)*groupsU, numPhases); ph++ {
				for _, st := range gr.live {
					if !st.done && ph*n2 < st.iters {
						st.phases++
					}
				}
			}
		}
		if e.be != nil {
			if err := e.sync(); err != nil {
				return err
			}
			e.be.Progress(int64(min((s+1)*groupsU, numPhases)), int64(numPhases))
		}
		if e.allDone(groups) {
			break // every lane cancelled: nothing left to sweep
		}
	}
	return nil
}

// phase runs phase ph of every group with live lanes in it: the engine
// masks cancelled lanes (their LaneResult carries the context error;
// the rest of the batch runs on), retires lanes past their Gray
// prefix, and trims the final short phase, then calls the family's
// InitRow / Transfer (+ halo exchange) / Finalize hooks.
func (e *engine) phase(groups []*famGroup, ph uint64, done *int64) {
	q0 := ph * uint64(e.n2)
	for _, gr := range groups {
		if !gr.alloced || q0 >= gr.itersLive {
			continue
		}
		gr.phaseLive = gr.phaseLive[:0]
		for _, st := range gr.live {
			if st.done || q0 >= st.iters {
				continue // retired: answer already folded from its Gray prefix
			}
			if e.be == nil { // distributed lanes retire only at a sync
				if err := st.ctxErr(); err != nil {
					st.done, st.err = true, err
					continue
				}
			}
			st.nb = int(min(uint64(e.n2), st.iters-q0))
			gr.phaseLive = append(gr.phaseLive, st)
		}
		if len(gr.phaseLive) == 0 {
			continue
		}
		r := &groupRun{engine: e, gr: gr, q0: q0, live: gr.phaseLive}
		count := gr.fam.CountPhases()
		if count {
			e.span(obs.PhaseName, int(ph), "phase")
			e.opt.Obs.Add(obs.Phases, 1)
		}
		gr.fam.InitRow(r)
		for step, nT := 1, gr.fam.Transfers(r); step <= nT; step++ {
			gr.fam.Transfer(r, step)
			if e.be != nil {
				if lvl, halos := gr.fam.Halo(r, step); len(halos) > 0 {
					e.be.Exchange(lvl, halos)
				}
			}
		}
		gr.fam.Finalize(r)
		if count {
			e.opt.obsEnd()
			*done++
			if e.opt.Progress != nil {
				e.opt.Progress(*done)
			}
		}
	}
}

// allDone reports whether every lane of the round is resolved.
func (e *engine) allDone(groups []*famGroup) bool {
	for _, gr := range groups {
		for _, st := range gr.live {
			if !st.done {
				return false
			}
		}
	}
	return true
}

// sync is a backend rank's collective step: a plain barrier when
// nothing can cancel, otherwise an OR all-reduce of [batch flag, lane
// mask]. Every rank applies the agreed union, so lanes retire at the
// same step everywhere and later halo widths never diverge; a set
// batch flag fails the run on every rank.
func (e *engine) sync() error {
	if !e.cancellable {
		e.be.Barrier()
		return nil
	}
	var flag, mask uint64
	if e.opt.ctxErr() != nil {
		flag = 1
	}
	for i, st := range e.lanes {
		if !st.done && st.ctxErr() != nil {
			mask |= 1 << uint(i)
		}
	}
	out := e.be.AllreduceOr([]uint64{flag, mask})
	if out[0] != 0 {
		if err := e.opt.ctxErr(); err != nil {
			return err
		}
		return context.Canceled // another rank saw the cancellation first
	}
	for i, st := range e.lanes {
		if out[1]&(1<<uint(i)) != 0 && !st.done {
			st.done, st.err = true, st.ctxErr()
			if st.err == nil {
				st.err = context.Canceled
			}
		}
	}
	return nil
}

// reduce XORs the live lanes' round accumulators across the world
// (Algorithm 2's MPIReduce, one collective for the whole batch).
func (e *engine) reduce(groups []*famGroup) {
	var vec []uint64
	for _, gr := range groups {
		for _, st := range gr.live {
			if !st.done {
				for _, v := range st.acc {
					vec = append(vec, uint64(v))
				}
			}
		}
	}
	if len(vec) == 0 {
		return
	}
	vec = e.be.AllreduceXor(vec)
	for _, gr := range groups {
		for _, st := range gr.live {
			if !st.done {
				for i := range st.acc {
					st.acc[i], vec = gf.Elem(vec[0]), vec[1:]
				}
			}
		}
	}
}

// sweepLane runs one sweep of a single lane whose assignment is
// already drawn and returns its accumulator: the per-round transcripts
// the tests pin.
func sweepLane(g *graph.Graph, fam Family, st *laneState, opt Options) ([]gf.Elem, error) {
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	st.k, st.iters = st.a.K, uint64(1)<<uint(st.a.K)
	gr := &famGroup{fam: fam, sts: []*laneState{st}, live: []*laneState{st}}
	fam.BeginRound(st)
	var done int64
	err := newEngine(g, []*famGroup{gr}, opt.batch(st.k), opt, nil).sweep([]*famGroup{gr}, &done)
	return st.acc, err
}
