package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/rng"
)

// Workload names.
const (
	wlSeqPath  = "seq-path"
	wlDistPath = "dist-path"
	wlServeMix = "serve-mix"
)

var workloads = []string{wlSeqPath, wlDistPath, wlServeMix}

// Library workloads (seq-path, dist-path): k-path on RandomNLogN(1000)
// with the library's default options, one op in noEvery on a
// no-instance of the same size.
const (
	libN      = 1000
	libK      = 10
	noEvery   = 8
	distRanks = 2
	distN1    = 2
)

// serve-mix: the query mix against midas-serve.
const (
	serveN        = 1000
	servePathK    = 8
	serveTreeK    = 7
	serveScanK    = 5
	serveZMax     = 4
	serveMotifK   = 6
	serveNoComp   = 4  // no-graph component size: below every query's k
	repeatPct     = 25 // share of queries that exactly repeat an earlier one
	registerEvery = 50 // one op in registerEvery registers a new graph
	numColors     = 4  // vertex labels 0..3 (motif queries)
	maxWeight     = 2  // vertex event weights 0..2 (scanstat queries)
	numTemplates  = 4
)

// Op kinds.
const (
	kindPath     = "path"
	kindTree     = "tree"
	kindScanStat = "scanstat"
	kindMotif    = "motif"
	kindRegister = "register"
)

// motifPool is the fixed set of motif constraints (color → minimum
// count) serve-mix draws from; each fits in serveMotifK vertices.
var motifPool = []map[int32]int{
	{0: 2, 1: 1},
	{1: 2, 2: 2},
	{3: 3},
	{0: 1, 1: 1, 2: 1, 3: 1},
}

// op is one operation of a workload's op list. The list is built from
// the workload seed before timing and fully determines what the
// program under test is asked.
type op struct {
	Kind   string `json:"kind"`
	No     bool   `json:"no,omitempty"` // targets the no-instance graph
	K      int    `json:"k,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	Tpl    int    `json:"tpl,omitempty"`   // tree: template index
	Motif  int    `json:"motif,omitempty"` // motif: constraint index
	Repeat int    `json:"repeat"`          // index of the op this exactly repeats; -1 when fresh
	Reg    uint64 `json:"reg,omitempty"`   // register: generator seed
}

// identity is the op's query identity: equal identities must get equal
// answers (and hit the same cache entry on the server).
func (o op) identity() string {
	return fmt.Sprintf("%s|no=%t|k=%d|seed=%d|tpl=%d|motif=%d", o.Kind, o.No, o.K, o.Seed, o.Tpl, o.Motif)
}

// inputs is everything a workload run needs, generated from its seed.
type inputs struct {
	workload string
	seed     uint64
	yes, no  *graph.Graph

	templates []*graph.Template // serve-mix tree templates
	witnesses map[string][]int32

	warm   op   // warm-up op, run once before timing (not in ops)
	ops    []op // the op list
	digest string
}

// workloadRand derives the generator for one workload and seed, so the
// three workloads draw unrelated inputs from the same seed.
func workloadRand(workload string, seed uint64) *rng.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return rng.New(seed ^ h)
}

// buildGraphs generates the workload's yes- and no-instance graphs.
// serve-mix graphs carry labels and event weights for its motif and
// scanstat queries.
func buildGraphs(workload string, seed uint64) (yes, no *graph.Graph) {
	r := workloadRand(workload, seed)
	switch workload {
	case wlServeMix:
		yes = graph.RandomNLogN(serveN, r.Uint64())
		no = smallComponents(serveN, serveNoComp, r.Uint64())
		for _, g := range []*graph.Graph{yes, no} {
			labels := make([]int32, g.NumVertices())
			weights := make([]int64, g.NumVertices())
			for v := range labels {
				labels[v] = int32(r.Intn(numColors))
				weights[v] = int64(r.Intn(maxWeight + 1))
			}
			g.SetLabels(labels)
			g.SetWeights(weights)
		}
	default:
		yes = graph.RandomNLogN(libN, r.Uint64())
		no = smallComponents(libN, libK-1, r.Uint64())
	}
	return yes, no
}

// smallComponents returns an n-vertex graph made of disjoint connected
// components of at most size vertices each (a spanning path plus each
// other pair with probability 1/2), so it has no connected subgraph on
// more than size vertices.
func smallComponents(n, size int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				if v == u+1 || r.Intn(2) == 0 {
					b.AddEdge(int32(u), int32(v))
				}
			}
		}
	}
	return b.Build()
}

// buildInputs generates a workload's graphs, witnesses and op list of
// nops ops. It fails if a generated instance is not what the workload
// claims it is (a yes-instance without a witness, a no-instance with a
// component of k vertices).
func buildInputs(workload string, seed uint64, nops int) (*inputs, error) {
	in := &inputs{workload: workload, seed: seed, witnesses: make(map[string][]int32)}
	in.yes, in.no = buildGraphs(workload, seed)
	r := workloadRand(workload, seed^0x5eed)
	minK := libK
	if workload == wlServeMix {
		minK = serveScanK
		for i := 0; i < numTemplates; i++ {
			in.templates = append(in.templates, graph.RandomTemplate(serveTreeK, r.Uint64()))
		}
		in.ops = serveOps(r, nops)
		in.warm = op{Kind: kindPath, K: servePathK, Seed: r.Uint64(), Repeat: -1}
	} else {
		in.ops = libOps(r, nops)
		in.warm = op{Kind: kindPath, K: libK, Seed: r.Uint64(), Repeat: -1}
	}
	if c := largestComponent(in.no); c >= minK {
		return nil, fmt.Errorf("%s: no-instance graph has a %d-vertex component (k ≥ %d)", workload, c, minK)
	}
	if err := in.findWitnesses(); err != nil {
		return nil, err
	}
	d, err := in.computeDigest()
	if err != nil {
		return nil, err
	}
	in.digest = d
	return in, nil
}

// libOps builds a library workload's op list: k-path queries with a
// fresh seed each, one in noEvery (at a random slot of each block) on
// the no-instance.
func libOps(r *rng.Rand, nops int) []op {
	ops := make([]op, nops)
	noSlot := 0
	for i := range ops {
		if i%noEvery == 0 {
			noSlot = r.Intn(noEvery)
		}
		ops[i] = op{Kind: kindPath, K: libK, Seed: r.Uint64(), No: i%noEvery == noSlot, Repeat: -1}
	}
	return ops
}

// mixBlock is the number of queries over which serve-mix's shares are
// exact: 128 = 96 fresh (24 per kind, 3 of those on the no-graph) + 32
// repeats. Exact shares keep every run's mix the same, which matters
// because the mix's latency distribution has one cluster per kind and
// its median sits inside one of them.
const mixBlock = 128

// serveOps builds the serve-mix op list: in every block of mixBlock
// queries, equal shares of the four query kinds, one fresh query in
// noEvery on the no-graph and repeatPct% exact repeats of an earlier
// query, in shuffled order; every registerEvery-th op registers a graph.
func serveOps(r *rng.Rand, nops int) []op {
	kinds := []string{kindPath, kindTree, kindScanStat, kindMotif}
	repeats := mixBlock * repeatPct / 100
	perKind := (mixBlock - repeats) / len(kinds)
	var block []op // pending query slots; Repeat 0 marks a repeat slot
	var fresh []int
	ops := make([]op, 0, nops)
	for i := 0; i < nops; i++ {
		if i%registerEvery == registerEvery-1 {
			ops = append(ops, op{Kind: kindRegister, Reg: r.Uint64(), Repeat: -1})
			continue
		}
		if len(block) == 0 {
			for _, k := range kinds {
				for j := 0; j < perKind; j++ {
					block = append(block, op{Kind: k, No: j < perKind/noEvery, Repeat: -1})
				}
			}
			for j := 0; j < repeats; j++ {
				block = append(block, op{Repeat: 0})
			}
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			if len(fresh) == 0 && block[0].Repeat == 0 {
				// The very first query cannot repeat anything.
				for j := range block {
					if block[j].Repeat < 0 {
						block[0], block[j] = block[j], block[0]
						break
					}
				}
			}
		}
		o := block[0]
		block = block[1:]
		if o.Repeat == 0 {
			j := fresh[r.Intn(len(fresh))]
			o = ops[j]
			o.Repeat = j
			ops = append(ops, o)
			continue
		}
		o.Seed = r.Uint64()
		switch o.Kind {
		case kindPath:
			o.K = servePathK
		case kindTree:
			o.K = serveTreeK
			o.Tpl = r.Intn(numTemplates)
		case kindScanStat:
			o.K = serveScanK
		case kindMotif:
			o.K = serveMotifK
			o.Motif = r.Intn(len(motifPool))
		}
		fresh = append(fresh, len(ops))
		ops = append(ops, o)
	}
	return ops
}

// findWitnesses searches the yes-graph for a witness of every
// yes-instance the op list can ask about, and validates each.
func (in *inputs) findWitnesses() error {
	if in.workload != wlServeMix {
		p := findPath(in.yes, libK)
		if !validPath(in.yes, p, libK) {
			return fmt.Errorf("%s: no %d-path witness in the yes-graph", in.workload, libK)
		}
		in.witnesses[kindPath] = p
		return nil
	}
	p := findPath(in.yes, servePathK)
	if !validPath(in.yes, p, servePathK) {
		return fmt.Errorf("serve-mix: no %d-path witness", servePathK)
	}
	in.witnesses[kindPath] = p
	for i, t := range in.templates {
		emb := findTree(in.yes, t)
		if !validTree(in.yes, t, emb) {
			return fmt.Errorf("serve-mix: no embedding witness for template %d", i)
		}
		in.witnesses[kindTree+"/"+strconv.Itoa(i)] = emb
	}
	for i, m := range motifPool {
		s := findMotif(in.yes, serveMotifK, m)
		if !validMotif(in.yes, s, serveMotifK, m) {
			return fmt.Errorf("serve-mix: no witness for motif constraint %d", i)
		}
		in.witnesses[kindMotif+"/"+strconv.Itoa(i)] = s
	}
	return nil
}

// computeDigest hashes everything the program under test will be asked:
// the graphs' content digests, the templates, the warm-up op and the op
// list. Two runs with the same workload and seed print the same digest.
func (in *inputs) computeDigest() (string, error) {
	var tpls [][][2]int32
	for _, t := range in.templates {
		tpls = append(tpls, templateEdges(t))
	}
	doc := struct {
		Workload  string       `json:"workload"`
		Seed      uint64       `json:"seed"`
		Graphs    [2]string    `json:"graphs"`
		Templates [][][2]int32 `json:"templates,omitempty"`
		Warm      op           `json:"warm"`
		Ops       []op         `json:"ops"`
	}{
		Workload: in.workload, Seed: in.seed,
		Graphs:    [2]string{strconv.FormatUint(in.yes.Digest(), 16), strconv.FormatUint(in.no.Digest(), 16)},
		Templates: tpls, Warm: in.warm, Ops: in.ops,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("encode op list: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// graphFor returns the graph an op targets.
func (in *inputs) graphFor(o op) *graph.Graph {
	if o.No {
		return in.no
	}
	return in.yes
}
