package main

import (
	"testing"

	"github.com/midas-hpc/midas/internal/graph"
)

func TestOpListDeterministicPerSeed(t *testing.T) {
	for _, wl := range workloads {
		a, err := buildInputs(wl, 7, 300)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildInputs(wl, 7, 300)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildInputs(wl, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", wl, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", wl, a.digest)
		}
	}
}

func TestLibraryOpShares(t *testing.T) {
	in, err := buildInputs(wlSeqPath, 3, 800)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[uint64]bool{}
	no := 0
	for _, o := range in.ops {
		if o.No {
			no++
		}
		seeds[o.Seed] = true
	}
	if no != len(in.ops)/noEvery {
		t.Errorf("%d of %d ops on the no-instance, want one in %d", no, len(in.ops), noEvery)
	}
	if len(seeds) != len(in.ops) {
		t.Errorf("%d distinct seeds over %d ops, want a fresh seed per op", len(seeds), len(in.ops))
	}
	if c := largestComponent(in.no); c >= libK {
		t.Errorf("no-instance has a %d-vertex component", c)
	}
}

func TestServeOpShares(t *testing.T) {
	// 4000 queries (80 of the 4080 ops are registrations): 31.25 blocks,
	// so take the first 31 whole blocks.
	in, err := buildInputs(wlServeMix, 3, 4080)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	queries, repeats, no := 0, 0, 0
	for i, o := range in.ops {
		if queries == 31*mixBlock {
			break
		}
		if o.Kind == kindRegister {
			if i%registerEvery != registerEvery-1 {
				t.Fatalf("registration at op %d", i)
			}
			continue
		}
		queries++
		if o.Repeat < 0 {
			kinds[o.Kind]++
			if o.No {
				no++
			}
		}
		if o.Repeat >= 0 {
			repeats++
			if r := in.ops[o.Repeat]; r.identity() != o.identity() || o.Repeat >= i {
				t.Fatalf("op %d does not repeat an earlier op exactly", i)
			}
		}
	}
	// The shares are exact over whole blocks of mixBlock queries.
	blocks := queries / mixBlock
	if queries%mixBlock != 0 {
		t.Fatalf("%d queries is not a whole number of blocks", queries)
	}
	if repeats*100 != blocks*mixBlock*repeatPct {
		t.Errorf("%d repeats in %d queries, want %d%%", repeats, queries, repeatPct)
	}
	for _, k := range []string{kindPath, kindTree, kindScanStat, kindMotif} {
		if kinds[k]*16 != queries*3 {
			t.Errorf("%d fresh %s queries in %d, want 1/4 of the fresh ones", kinds[k], k, queries)
		}
	}
	if no*noEvery*4 != queries*3 {
		t.Errorf("%d fresh no-graph queries in %d, want one fresh query in %d", no, queries, noEvery)
	}
}

func TestWitnessSearch(t *testing.T) {
	g := graph.Path(6)
	if p := findPath(g, 6); !validPath(g, p, 6) {
		t.Errorf("no 6-path witness in a 6-path: %v", p)
	}
	if p := findPath(g, 7); p != nil {
		t.Errorf("7-path witness %v in a 6-vertex graph", p)
	}
	star := graph.Star(5)
	if emb := findTree(star, graph.StarTemplate(5)); !validTree(star, graph.StarTemplate(5), emb) {
		t.Errorf("no star embedding in a star: %v", emb)
	}
	if emb := findTree(g, graph.StarTemplate(4)); emb != nil {
		t.Errorf("3-leaf star embedded in a path: %v", emb)
	}
	g.SetLabels([]int32{0, 1, 0, 1, 0, 1})
	want := map[int32]int{0: 2, 1: 1}
	if s := findMotif(g, 3, want); !validMotif(g, s, 3, want) {
		t.Errorf("no motif witness: %v", s)
	}
	if s := findMotif(g, 3, map[int32]int{0: 3}); s != nil {
		t.Errorf("motif witness %v for three color-0 vertices in a row", s)
	}
}
