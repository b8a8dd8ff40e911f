// Package core implements MIDAS itself — the distributed multilinear
// detection algorithm of the paper's Section IV — on top of the
// internal/comm substrate.
//
// The world of N ranks is split into a = N/N1 *phase groups* of N1
// ranks (comm.Split). All groups share one deterministic partition of
// the graph into N1 parts; rank r of a group owns part r. The 2^k
// iterations are cut into phases of N2 iterations; phase t is handled
// by group t mod a. Within a phase, the group evaluates the polynomial
// bottom-up: each DP level updates the owned vertices' iteration
// vectors and then exchanges boundary vectors with neighboring parts in
// one aggregated message per (source, destination) pair — the paper's
// communication batching. Per-phase-step world barriers and the final
// XOR all-reduce mirror Algorithm 2's MPIBarrier/MPIReduce.
//
// The DP itself is internal/mld's sweep engine: core holds only the
// plan (the partition, this rank's owned and ghost slots, the halo
// lists), the cost model, and the small mld.Backend the plan
// implements — a slot-indexed local view of the graph, the phase-group
// schedule, the halo exchange, and the world collectives. Every entry
// point (RunPath, RunTree, RunScan, RunMotif, RunMaxWeightPath,
// RunBatch) is one mld.RunLanes call with the plan as its backend.
//
// Everything random (vertex scalars, fingerprints, partition seeds) is
// derived from the configured seed, so all ranks construct identical
// assignments with zero communication.
//
// Per-rank compute time is modeled by counting DP operations and
// converting them with constants calibrated once on this machine
// (costmodel.go) — wall-clock measurement would be inflated by
// goroutine preemption when many ranks share one core. Combined with
// the α–β message costs in internal/comm, the maximum clock after a run
// is the modeled makespan used by the scaling experiments (DESIGN.md
// §3).
package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/partition"
)

// Config parameterizes a MIDAS run. Every rank must pass identical
// values.
type Config struct {
	K       int
	N1      int // graph parts per phase group; must divide world size; 0 → world size
	N2      int // iterations per phase; 0 → 128 (capped at 2^k)
	Seed    uint64
	Epsilon float64          // target failure probability (default 0.05)
	Rounds  int              // 0 → derived from Epsilon
	Scheme  partition.Scheme // partitioner; "" → block

	NoFingerprints bool // ablation: the unsound verbatim pseudo-code
	NoGray         bool // ablation: recompute base values per iteration
	NoTiming       bool // skip wall-time clock advancement (pure answers)

	// Ctx, when non-nil, makes the run cancellable: before each round
	// and between phase steps the ranks agree on the cancellation state
	// with a two-word [flag, lane mask] all-reduce (replacing the plain
	// barrier, so every rank leaves the collective schedule at the same
	// step) and return the context's error. Nil — the default, when no
	// batch lane carries a context either — keeps the exact barrier
	// protocol, so message-count-pinned tests and cost models are
	// unchanged. All ranks must receive the same context. The serving
	// layer (internal/serve) threads each request's deadline context
	// here.
	Ctx context.Context

	// Part, when non-nil, is a precomputed partition to use instead of
	// running the configured Scheme — the mechanism by which a resident
	// service reuses one partition across many queries on the same
	// graph. It must have exactly N1 parts (after N1 defaulting) and
	// cover the graph's vertices; its Members cache must already be
	// materialized if ranks share the pointer concurrently (call
	// Members(i) for every part once before handing it out).
	Part *partition.Partition

	// Progress, when non-nil, receives global phase progress for the
	// current round's iteration sweep: after each collective phase
	// step, world rank 0 (only — one reporter per world) calls it with
	// the number of phases all groups have finished jointly and the
	// round's total. The serving layer threads each query's trace
	// updater here; the callback runs on rank 0's execution goroutine
	// between collectives, so keep it cheap and non-blocking.
	Progress func(done, total int64)
}

func (cfg Config) withDefaults(worldSize int) (Config, error) {
	if cfg.N1 == 0 {
		cfg.N1 = worldSize
	}
	if cfg.N1 < 1 || cfg.N1 > worldSize || worldSize%cfg.N1 != 0 {
		return cfg, fmt.Errorf("core: N1=%d must divide world size %d", cfg.N1, worldSize)
	}
	if cfg.Scheme == "" {
		cfg.Scheme = partition.SchemeBlock
	}
	return cfg, nil
}

// plan is the per-rank execution plan: the partition, this rank's owned
// vertex set, ghost slots for remote neighbors, and the symmetric halo
// exchange lists. All ranks derive identical plans deterministically.
// It is also the rank's mld.Backend (backend.go); the embedded world
// communicator supplies the collectives.
type plan struct {
	*comm.Comm // the world
	cfg        Config
	group      *comm.Comm // the phase group communicator (size N1)
	view       mld.View   // the local graph and phase-group schedule

	myPart int
	owned  []int32 // global ids, sorted
	slotOf []int32 // global id → value-buffer slot; -1 when unused

	// halo lists per peer part, sorted by part id then vertex id.
	sendTo   []haloList // our owned boundary vertices each peer needs
	recvFrom []haloList // peer-owned vertices our updates need

	computeSecs float64 // accumulated modeled compute time (profiling)
	sumDegOwned int     // Σ_{v owned} deg(v): the per-level edge count

	rec   *obs.Recorder // the world's recorder; nil when observability is off
	arena *mld.Arena    // slab pool shared across this plan's rounds
}

type haloList struct {
	part  int
	verts []int32 // global ids, ascending
	slots []int32 // value-buffer slots of verts
}

func buildPlan(world *comm.Comm, g *graph.Graph, cfg Config) (*plan, error) {
	cfg, err := cfg.withDefaults(world.Size())
	if err != nil {
		return nil, err
	}
	world.SetPhase("setup")
	p := &plan{Comm: world, cfg: cfg, rec: world.Recorder(), arena: mld.NewArena()}
	p.view.Groups = world.Size() / cfg.N1
	p.view.Group = world.Rank() / cfg.N1
	p.group = world.Split(p.view.Group, world.Rank()%cfg.N1)
	p.myPart = p.group.Rank()

	part := cfg.Part
	if part != nil {
		if part.Parts != cfg.N1 {
			return nil, fmt.Errorf("core: precomputed partition has %d parts, want N1=%d", part.Parts, cfg.N1)
		}
		if len(part.Of) != g.NumVertices() {
			return nil, fmt.Errorf("core: precomputed partition covers %d vertices, graph has %d", len(part.Of), g.NumVertices())
		}
	} else {
		part, err = partition.ByScheme(cfg.Scheme, g, cfg.N1, cfg.Seed^0x70a3d70a3d70a3d7)
		if err != nil {
			return nil, err
		}
	}
	p.owned = append([]int32(nil), part.Members(p.myPart)...)
	sort.Slice(p.owned, func(i, j int) bool { return p.owned[i] < p.owned[j] })

	p.slotOf = make([]int32, g.NumVertices())
	for i := range p.slotOf {
		p.slotOf[i] = -1
	}
	for s, v := range p.owned {
		p.slotOf[v] = int32(s)
	}

	sendSets := make(map[int]map[int32]bool)
	ghostSets := make(map[int]map[int32]bool)
	for _, v := range p.owned {
		for _, u := range g.Neighbors(v) {
			pu := int(part.Of[u])
			if pu == p.myPart {
				continue
			}
			if sendSets[pu] == nil {
				sendSets[pu] = make(map[int32]bool)
			}
			sendSets[pu][v] = true
			if ghostSets[pu] == nil {
				ghostSets[pu] = make(map[int32]bool)
			}
			ghostSets[pu][u] = true
		}
	}
	next := int32(len(p.owned))
	peerParts := make([]int, 0, len(ghostSets))
	for pu := range ghostSets {
		peerParts = append(peerParts, pu)
	}
	sort.Ints(peerParts)
	for _, pu := range peerParts {
		verts := setToSorted(ghostSets[pu])
		slots := make([]int32, len(verts))
		for i, u := range verts {
			if p.slotOf[u] < 0 {
				p.slotOf[u] = next
				next++
			}
			slots[i] = p.slotOf[u]
		}
		p.recvFrom = append(p.recvFrom, haloList{part: pu, verts: verts, slots: slots})
	}
	for _, pu := range peerParts {
		verts := setToSorted(sendSets[pu])
		slots := make([]int32, len(verts))
		for i, v := range verts {
			slots[i] = p.slotOf[v]
		}
		p.sendTo = append(p.sendTo, haloList{part: pu, verts: verts, slots: slots})
	}
	p.buildView(g, int(next))
	return p, nil
}

// buildView derives the slot-indexed local graph the engine sweeps:
// the owned vertices' rows first (adjacency renumbered to slots), then
// one adjacency-free row per ghost, each slot carrying its vertex's
// weight.
func (p *plan) buildView(g *graph.Graph, nSlots int) {
	vertOf := make([]int32, nSlots)
	for v, s := range p.slotOf {
		if s >= 0 {
			vertOf[s] = int32(v)
		}
	}
	offsets := make([]int64, nSlots+1)
	var adj []int32
	for s, v := range p.owned {
		for _, u := range g.Neighbors(v) {
			adj = append(adj, p.slotOf[u])
		}
		offsets[s+1] = int64(len(adj))
	}
	for s := len(p.owned); s < nSlots; s++ {
		offsets[s+1] = int64(len(adj))
	}
	var weights []int64
	if g.Weighted() {
		weights = make([]int64, nSlots)
		for s, v := range vertOf {
			weights[s] = g.Weight(v)
		}
	}
	local, err := graph.FromCSR(offsets, adj, weights, nil, nil)
	if err != nil {
		panic(err) // the arrays are built consistent above
	}
	p.sumDegOwned = len(adj)
	p.view.Local, p.view.Owned, p.view.Global = local, len(p.owned), vertOf
}

func setToSorted(s map[int32]bool) []int32 {
	out := make([]int32, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Profile is a rank's time and traffic breakdown for one run: the
// measured compute time, the rank's total virtual time (compute plus
// modeled communication and waiting), and its traffic. The gap between
// TotalSecs and ComputeSecs is the communication share the paper's
// Section VI discusses.
type Profile struct {
	ComputeSecs float64
	TotalSecs   float64
	MsgsSent    int64
	BytesSent   int64
}
