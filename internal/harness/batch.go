package harness

// Batched-query amortization bench: the same four path queries
// answered two ways — four solo distributed runs versus one batched
// run at occupancy four — on a deliberately communication-bound
// configuration (small N2, so the per-phase α cost dominates). The
// batch pays the per-message and per-step synchronization cost once
// for all lanes, which is where the per-query speedup comes from;
// docs/BATCHING.md derives the model, docs/PERFORMANCE.md the cost
// constants.

import (
	"fmt"
	"time"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/core"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

// batchBenchLanes is the occupancy of the standard batch bench record.
const batchBenchLanes = 4

// batchBenchModel is the cost model both legs of the bench run under: a
// commodity 10 Gbps Ethernet/TCP cluster (≈50 µs per-message latency,
// ≈1.25 GB/s per link) rather than the InfiniBand DefaultCostModel.
// The admission window exists for exactly this regime — when the
// per-message α dominates per-rank compute, a batch pays it once for
// all lanes. Using the same model on both sides keeps the comparison
// fair; the message and DP-op counts are model-independent anyway.
func batchBenchModel() comm.CostModel {
	return comm.CostModel{Alpha: 50e-6, Beta: 1.0 / 1.25e9}
}

// BatchRecord compares one batched execution against the equivalent
// sequential runs. The Seq* fields total all lanes run solo; the
// Batch* fields are the single batched run answering the same lanes.
// PerQuery* fields are the batch cost amortized over its occupancy —
// the quantities the serving layer's admission window buys down.
// Msgs/DPOps are deterministic in the parameters; modeled seconds use
// the fixed batchBenchModel α–β constants (fully deterministic); wall
// seconds are honest and vary freely.
type BatchRecord struct {
	Dataset string `json:"dataset"`
	K       int    `json:"k"`
	N       int    `json:"n"`
	N1      int    `json:"n1"`
	N2      int    `json:"n2"`
	Lanes   int    `json:"lanes"` // batch occupancy

	SeqModeledSecs   float64 `json:"seqModeledSecs"`
	BatchModeledSecs float64 `json:"batchModeledSecs"`
	SeqWallSecs      float64 `json:"seqWallSecs"`
	BatchWallSecs    float64 `json:"batchWallSecs"`
	SeqMsgs          int64   `json:"seqMsgs"`
	BatchMsgs        int64   `json:"batchMsgs"`
	SeqDPOps         int64   `json:"seqDPOps"`
	BatchDPOps       int64   `json:"batchDPOps"`

	// PerQueryModeledSecs = BatchModeledSecs / Lanes: the amortized
	// cost of one query inside the batch.
	PerQueryModeledSecs float64 `json:"perQueryModeledSecs"`
	// PerQueryMsgs / PerQueryDPOps = Batch counters / Lanes.
	PerQueryMsgs  float64 `json:"perQueryMsgs"`
	PerQueryDPOps float64 `json:"perQueryDPOps"`
	// PerQuerySpeedup = SeqModeledSecs / BatchModeledSecs: how many
	// times cheaper one query got by riding the batch (both sides
	// answer Lanes queries, so the totals ratio IS the per-query
	// throughput ratio).
	PerQuerySpeedup float64 `json:"perQuerySpeedup"`
}

// BatchBench produces one BatchRecord per requested k on the random
// dataset: occupancy-4 path batches on a communication-bound
// configuration. The world is widened beyond p.N (and N2 pinned to 1)
// so the per-phase message cost dominates per-rank compute — the
// regime the admission window targets, where batching pays the α cost
// once for all lanes instead of once per query.
func BatchBench(p Params) ([]BatchRecord, error) {
	p = p.withDefaults()
	n := p.N
	if n < 16 {
		n = 16
	}
	ds := Datasets()[0] // random
	g := ds.Build(p.Scale, p.Seed)
	var out []BatchRecord
	for _, k := range p.Ks {
		n1 := n
		n2 := 1 // one iteration per phase: maximally α-bound
		cfg := core.Config{N1: n1, N2: n2, Seed: p.Seed, Rounds: 1}
		lanes := make([]mld.BatchLane, batchBenchLanes)
		for i := range lanes {
			lanes[i] = mld.BatchLane{K: k, Seed: p.Seed + uint64(i), Rounds: 1}
		}
		rec := BatchRecord{
			Dataset: ds.Name, K: k, N: n, N1: n1, N2: n2, Lanes: len(lanes),
		}

		// Sequential leg: each lane on its own fresh world.
		seqStart := time.Now()
		for _, l := range lanes {
			c1 := cfg
			c1.K, c1.Seed = l.K, l.Seed
			comms, err := comm.RunLocalInspect(n, batchBenchModel(), func(c *comm.Comm) error {
				c.EnableObs()
				_, err := core.RunPath(c, g, c1)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("harness: batch bench solo k=%d seed=%d: %w", l.K, l.Seed, err)
			}
			rec.SeqModeledSecs += comm.MaxClock(comms)
			rec.SeqMsgs += comm.TotalStats(comms).MsgsSent
			rec.SeqDPOps += obs.Totals(comm.Snapshots(comms)...).Counter(obs.DPOps)
		}
		rec.SeqWallSecs = time.Since(seqStart).Seconds()

		// Batched leg: all lanes in one run.
		batchStart := time.Now()
		comms, err := comm.RunLocalInspect(n, batchBenchModel(), func(c *comm.Comm) error {
			c.EnableObs()
			res, err := core.RunBatch(c, g, cfg, core.BatchSpec{Kind: mld.KindPath, Lanes: lanes})
			if err != nil {
				return err
			}
			for i, lr := range res {
				if lr.Err != nil {
					return fmt.Errorf("lane %d: %w", i, lr.Err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("harness: batch bench k=%d: %w", k, err)
		}
		rec.BatchWallSecs = time.Since(batchStart).Seconds()
		rec.BatchModeledSecs = comm.MaxClock(comms)
		rec.BatchMsgs = comm.TotalStats(comms).MsgsSent
		rec.BatchDPOps = obs.Totals(comm.Snapshots(comms)...).Counter(obs.DPOps)

		rec.PerQueryModeledSecs = rec.BatchModeledSecs / float64(rec.Lanes)
		rec.PerQueryMsgs = float64(rec.BatchMsgs) / float64(rec.Lanes)
		rec.PerQueryDPOps = float64(rec.BatchDPOps) / float64(rec.Lanes)
		if rec.BatchModeledSecs > 0 {
			rec.PerQuerySpeedup = rec.SeqModeledSecs / rec.BatchModeledSecs
		}
		out = append(out, rec)
	}
	return out, nil
}
