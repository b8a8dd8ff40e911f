package core

// The plan as the mld engine's Backend: the rank's local view, the
// halo exchange, the modeled compute clock, and (through the embedded
// world communicator) the Barrier / AllreduceOr / AllreduceXor
// collectives. See the mld family engine for where each seam runs.

import (
	"fmt"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

var _ mld.Backend = (*plan)(nil)

// View returns the rank's local graph and phase-group schedule.
func (p *plan) View() mld.View { return p.view }

// Exchange sends this rank's owned rows of every halo to each peer
// part and fills the ghost rows with the peers' values (Algorithm 3
// lines 14–16): one aggregated message per peer per level, whatever
// the number of slabs and lanes — batching widens payloads, never the
// message count. All sends go first (non-blocking), then receives:
// symmetric and deadlock-free.
func (p *plan) Exchange(level int, halos []mld.Halo) {
	width := 0 // elements per boundary slot
	for _, h := range halos {
		for _, sp := range h.Spans {
			width += sp.Hi - sp.Lo
		}
	}
	if p.rec.Enabled() {
		p.rec.Begin(obs.HaloName(level), "halo")
	}
	haloStart := p.Clock().Now()
	for _, peer := range p.sendTo {
		payload := make([]byte, 0, 2*width*len(peer.slots))
		for _, h := range halos {
			for _, s := range peer.slots {
				row := int(s) * h.Stride
				for _, sp := range h.Spans {
					for _, e := range h.Vals[row+sp.Lo : row+sp.Hi] {
						payload = append(payload, byte(e), byte(e>>8))
					}
				}
			}
		}
		p.group.Send(peer.part, level, payload)
		p.rec.Add(obs.HaloMsgs, 1)
		p.rec.Add(obs.HaloBytes, int64(len(payload)))
		p.rec.AddHaloLevel(level, int64(len(payload)))
	}
	for _, peer := range p.recvFrom {
		payload := p.group.Recv(peer.part, level)
		if len(payload) != 2*width*len(peer.slots) {
			panic(fmt.Sprintf("core: halo message from part %d has %d bytes, want %d",
				peer.part, len(payload), 2*width*len(peer.slots)))
		}
		for _, h := range halos {
			for _, s := range peer.slots {
				row := int(s) * h.Stride
				for _, sp := range h.Spans {
					vec := h.Vals[row+sp.Lo : row+sp.Hi]
					for q := range vec {
						vec[q] = gf.Elem(payload[0]) | gf.Elem(payload[1])<<8
						payload = payload[2:]
					}
				}
			}
		}
	}
	p.rec.Observe(obs.HistHaloExchange, p.Clock().Now()-haloStart)
	p.rec.End()
}

// Compute charges one DP level to this rank's modeled clock: elems
// kernel elements plus the per-edge overhead of the owned adjacency
// (costmodel.go).
func (p *plan) Compute(elems int64) {
	if p.cfg.NoTiming {
		return
	}
	elemSec, edgeSec := kernelCosts()
	dt := elemSec*float64(elems) + edgeSec*float64(p.sumDegOwned)
	p.Clock().Advance(dt)
	p.computeSecs += dt
}

// Label makes the round or phase the communicator's failure-phase
// label, so a rank that dies mid-run reports where (comm.RankError).
func (p *plan) Label(name string) { p.SetPhase(name) }

// Progress surfaces global sweep progress to Config.Progress from world
// rank 0 only: one reporter per world.
func (p *plan) Progress(done, total int64) {
	if p.cfg.Progress != nil && p.Rank() == 0 {
		p.cfg.Progress(done, total)
	}
}
