package main

import (
	"github.com/midas-hpc/midas/internal/graph"
)

// The witnesses below are found by plain depth-first search before
// timing starts. They prove a yes-instance really is one, so a "no"
// answer on it is a false negative (allowed up to ε by the one-sided
// error bound), never a silent pass of a wrong engine.

// searchBudget caps the DFS nodes one witness search may expand; the
// workload graphs are dense enough that a witness turns up long before.
const searchBudget = 5_000_000

// findPath returns a simple path on k vertices, or nil.
func findPath(g *graph.Graph, k int) []int32 {
	n := g.NumVertices()
	on := make([]bool, n)
	path := make([]int32, 0, k)
	budget := searchBudget
	var dfs func(v int32) bool
	dfs = func(v int32) bool {
		if budget--; budget < 0 {
			return false
		}
		on[v] = true
		path = append(path, v)
		if len(path) == k {
			return true
		}
		for _, u := range g.Neighbors(v) {
			if !on[u] && dfs(u) {
				return true
			}
		}
		on[v] = false
		path = path[:len(path)-1]
		return false
	}
	for v := int32(0); v < int32(n); v++ {
		if dfs(v) {
			return path
		}
	}
	return nil
}

// validPath reports whether p is a simple path on k vertices of g.
func validPath(g *graph.Graph, p []int32, k int) bool {
	if len(p) != k || !distinct(g, p) {
		return false
	}
	for i := 1; i < len(p); i++ {
		if !g.HasEdge(p[i-1], p[i]) {
			return false
		}
	}
	return true
}

// templateEdges lists a tree template's edges once each (u < v), the
// form the query API takes.
func templateEdges(t *graph.Template) [][2]int32 {
	var out [][2]int32
	for u := int32(0); u < int32(t.K()); u++ {
		for _, v := range t.Neighbors(u) {
			if u < v {
				out = append(out, [2]int32{u, v})
			}
		}
	}
	return out
}

// findTree returns an embedding of t in g (emb[i] is the image of
// template vertex i), or nil.
func findTree(g *graph.Graph, t *graph.Template) []int32 {
	k := t.K()
	// Visit template vertices in BFS order from 0, so each vertex after
	// the first has an already-placed parent.
	order, parent := []int32{0}, make([]int32, k)
	seen := make([]bool, k)
	seen[0], parent[0] = true, -1
	for i := 0; i < len(order); i++ {
		for _, u := range t.Neighbors(order[i]) {
			if !seen[u] {
				seen[u], parent[u] = true, order[i]
				order = append(order, u)
			}
		}
	}
	emb := make([]int32, k)
	used := make([]bool, g.NumVertices())
	budget := searchBudget
	var place func(i int) bool
	place = func(i int) bool {
		if i == k {
			return true
		}
		if budget--; budget < 0 {
			return false
		}
		tv := order[i]
		for _, v := range g.Neighbors(emb[parent[tv]]) {
			if used[v] {
				continue
			}
			used[v], emb[tv] = true, v
			if place(i + 1) {
				return true
			}
			used[v] = false
		}
		return false
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		used[v], emb[0] = true, v
		if place(1) {
			return emb
		}
		used[v] = false
	}
	return nil
}

// validTree reports whether emb embeds t in g.
func validTree(g *graph.Graph, t *graph.Template, emb []int32) bool {
	if len(emb) != t.K() || !distinct(g, emb) {
		return false
	}
	for _, e := range templateEdges(t) {
		if !g.HasEdge(emb[e[0]], emb[e[1]]) {
			return false
		}
	}
	return true
}

// findMotif returns a connected k-vertex set of g holding at least
// counts[c] vertices of each color c, or nil.
func findMotif(g *graph.Graph, k int, counts map[int32]int) []int32 {
	n := g.NumVertices()
	in := make([]bool, n)
	set := make([]int32, 0, k)
	need := make(map[int32]int, len(counts))
	unmet := 0
	for c, m := range counts {
		need[c] = m
		unmet += m
	}
	budget := searchBudget
	var grow func() bool
	grow = func() bool {
		if len(set) == k {
			return unmet == 0
		}
		if budget--; budget < 0 {
			return false
		}
		// Extend by any neighbor of the set; the unmet-count bound
		// prunes branches that can no longer satisfy the constraint.
		for _, s := range set {
			for _, v := range g.Neighbors(s) {
				if in[v] {
					continue
				}
				c := g.Label(v)
				helps := need[c] > 0
				if !helps && unmet > k-len(set)-1 {
					continue
				}
				in[v] = true
				set = append(set, v)
				if helps {
					need[c]--
					unmet--
				}
				if grow() {
					return true
				}
				if helps {
					need[c]++
					unmet++
				}
				set = set[:len(set)-1]
				in[v] = false
			}
		}
		return false
	}
	for v := int32(0); v < int32(n); v++ {
		c := g.Label(v)
		if need[c] == 0 {
			continue // start from a vertex the constraint wants
		}
		in[v] = true
		set = append(set[:0], v)
		need[c]--
		unmet--
		if grow() {
			return set
		}
		need[c]++
		unmet++
		in[v] = false
	}
	return nil
}

// validMotif reports whether s is a connected k-set of g meeting counts.
func validMotif(g *graph.Graph, s []int32, k int, counts map[int32]int) bool {
	if len(s) != k || !distinct(g, s) || !graph.IsConnectedSubset(g, s) {
		return false
	}
	have := make(map[int32]int)
	for _, v := range s {
		have[g.Label(v)]++
	}
	for c, m := range counts {
		if have[c] < m {
			return false
		}
	}
	return true
}

// distinct reports whether every vertex of s is in range and unique.
func distinct(g *graph.Graph, s []int32) bool {
	seen := make(map[int32]bool, len(s))
	for _, v := range s {
		if v < 0 || int(v) >= g.NumVertices() || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// largestComponent is the vertex count of g's largest connected
// component: a graph whose largest component has fewer than k vertices
// has no connected k-vertex subgraph at all — no k-path, no k-tree, no
// k-motif — which is what makes it a no-instance.
func largestComponent(g *graph.Graph) int {
	size := make(map[int32]int)
	best := 0
	for _, c := range graph.ConnectedComponents(g) {
		size[c]++
		if size[c] > best {
			best = size[c]
		}
	}
	return best
}
