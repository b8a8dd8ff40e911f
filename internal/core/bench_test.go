package core

// Microbenchmark for the distributed DP inner loop (Algorithm 3): one
// rank's share of one round's 2^k iterations through the plan's
// backend, on a single-rank world so no communication overlaps the
// measured compute. The plan is built once, outside the timed loop.
// Run via `make bench`.

import (
	"testing"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

var benchSink bool

func benchmarkPathRound(b *testing.B, n, k, n2 int) {
	b.Helper()
	g := graph.RandomNLogN(n, 1)
	world := comm.NewLocalWorld(1, comm.CostModel{})
	p, err := buildPlan(world[0], g, Config{K: k, N1: 1, N2: n2, Seed: 1, Rounds: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.run(g, mld.KindPath, []mld.BatchLane{{K: k, Seed: uint64(i % 4), Rounds: 1}})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res[0].Found
	}
}

func BenchmarkPathRoundK6(b *testing.B)  { benchmarkPathRound(b, 500, 6, 16) }
func BenchmarkPathRoundK8(b *testing.B)  { benchmarkPathRound(b, 500, 8, 64) }
func BenchmarkPathRoundK10(b *testing.B) { benchmarkPathRound(b, 500, 10, 64) }
