// Package baseline implements the 1G rung of the generation ladder: a
// faithful-in-mechanism active network in the ANTS style — capsules
// referencing code by identifier, with demand code distribution pulled
// hop-by-hop from the previous node (Wetherall/Guttag/Tennenhouse 1998).
//
// The passive pre-AN rung has no deployment mechanism at all, so E1
// tabulates it without running anything. The 2G rung (NodeOS
// programmability) is the nodeos package; 3G adds hw; the full 4G
// Wandering Network is the root viator package. Experiments E1 and E6
// run identical workloads across these rungs.
package baseline

import (
	"fmt"

	"viator/internal/netsim"
	"viator/internal/nodeos"
	"viator/internal/routing"
	"viator/internal/sim"
	"viator/internal/topo"
	"viator/internal/vm"
)

// --- 1G ANTS-style capsule network ---

// Capsule is an active packet referencing its processing routine by code
// identifier, exactly the ANTS capsule model.
type Capsule struct {
	CodeID string
	Src    topo.NodeID
	Dst    topo.NodeID
	Size   int
}

// payload kinds on the wire.
type capFrame struct {
	cap  *Capsule
	prev topo.NodeID // previous active node (code pull target)
}

type pullReq struct {
	codeID    string
	requester topo.NodeID
}

type pullResp struct {
	codeID string
	code   []byte
}

// ANTS is the 1G network: every node runs a fixed execution environment
// and a code store; capsules whose routine is missing trigger a demand
// pull from the previous hop before processing resumes.
type ANTS struct {
	K   *sim.Kernel
	G   *topo.Graph
	Net *netsim.Net
	R   *routing.Static

	stores  []*nodeos.CodeStore
	pending [][]pendingCap // per node: capsules awaiting code
	gas     int64

	// Executions counts capsule routine runs; CodePulls counts demand
	// fetches; ControlBytes counts pull-protocol bytes on the wire.
	Executions   uint64
	ExecFailures uint64
	CodePulls    uint64
	ControlBytes uint64
	Delivered    uint64
	Lost         uint64
}

type pendingCap struct {
	frame capFrame
}

// NewANTS builds the capsule network over g.
func NewANTS(k *sim.Kernel, g *topo.Graph, gasLimit int64) *ANTS {
	a := &ANTS{
		K: k, G: g, Net: netsim.New(k, g), R: routing.NewStatic(g),
		gas: gasLimit,
	}
	a.stores = make([]*nodeos.CodeStore, g.N())
	a.pending = make([][]pendingCap, g.N())
	for i := range a.stores {
		a.stores[i] = nodeos.NewCodeStore(64)
	}
	a.Net.OnReceive(a.receive)
	return a
}

// Store exposes a node's code store (seeding and inspection).
func (a *ANTS) Store(n topo.NodeID) *nodeos.CodeStore { return a.stores[n] }

// Coverage returns the fraction of nodes holding the given code.
func (a *ANTS) Coverage(codeID string) float64 {
	have := 0
	for _, s := range a.stores {
		if s.Has(codeID) {
			have++
		}
	}
	return float64(have) / float64(len(a.stores))
}

// SendCapsule injects a capsule at src. The routine must already be
// present at src (the ANTS sender always has its own protocol code).
func (a *ANTS) SendCapsule(c *Capsule) bool {
	if !a.stores[c.Src].Has(c.CodeID) {
		return false
	}
	return a.forward(c.Src, capFrame{cap: c, prev: c.Src})
}

// forward executes the capsule at node n and sends it to the next hop.
func (a *ANTS) forward(n topo.NodeID, f capFrame) bool {
	prog, ok := a.stores[n].Get(f.cap.CodeID)
	if !ok {
		// Should not happen: callers check presence first.
		a.Lost++
		return false
	}
	m := vm.NewMachine(prog, a.gas)
	m.SetReg(0, int64(n))
	m.SetReg(1, int64(f.cap.Dst))
	if _, err := m.Run(); err != nil {
		a.ExecFailures++
		a.Lost++
		return false
	}
	a.Executions++
	if n == f.cap.Dst {
		a.Delivered++
		return true
	}
	next := a.R.NextHop(n, f.cap.Dst)
	if next == -1 {
		a.Lost++
		return false
	}
	pkt := a.Net.NewPacket(n, f.cap.Dst, f.cap.Size, "capsule", capFrame{cap: f.cap, prev: n})
	return a.Net.Send(n, next, pkt)
}

// receive dispatches arriving frames.
func (a *ANTS) receive(at topo.NodeID, pkt *netsim.Packet) {
	switch pl := pkt.Payload.(type) {
	case capFrame:
		if a.stores[at].Has(pl.cap.CodeID) {
			a.forward(at, pl)
			return
		}
		// Demand pull: park the capsule, ask the previous hop.
		a.pending[at] = append(a.pending[at], pendingCap{frame: pl})
		a.CodePulls++
		req := a.Net.NewPacket(at, pl.prev, 64, "pull", pullReq{codeID: pl.cap.CodeID, requester: at})
		a.ControlBytes += 64
		next := a.R.NextHop(at, pl.prev)
		if next == -1 || !a.Net.Send(at, next, req) {
			a.Lost++
		}
	case pullReq:
		if at != pkt.Dst {
			a.relay(at, pkt)
			return
		}
		prog, ok := a.stores[at].Get(pl.codeID)
		if !ok {
			return // upstream lost the code; the capsule stays parked
		}
		code := vm.Encode(prog)
		resp := a.Net.NewPacket(at, pl.requester, len(code)+16, "pullresp", pullResp{codeID: pl.codeID, code: code})
		a.ControlBytes += uint64(len(code) + 16)
		next := a.R.NextHop(at, pl.requester)
		if next != -1 {
			a.Net.Send(at, next, resp)
		}
	case pullResp:
		if at != pkt.Dst {
			a.relay(at, pkt)
			return
		}
		prog, err := vm.Decode(pl.code)
		if err != nil {
			return
		}
		a.stores[at].Put(pl.codeID, prog)
		// Resume every parked capsule now runnable.
		var rest []pendingCap
		for _, pc := range a.pending[at] {
			if pc.frame.cap.CodeID == pl.codeID {
				a.forward(at, pc.frame)
			} else {
				rest = append(rest, pc)
			}
		}
		a.pending[at] = rest
	default:
		panic(fmt.Sprintf("baseline: unknown payload %T", pkt.Payload))
	}
}

// relay forwards a control packet toward its destination.
func (a *ANTS) relay(at topo.NodeID, pkt *netsim.Packet) {
	next := a.R.NextHop(at, pkt.Dst)
	if next == -1 || !a.Net.Send(at, next, pkt) {
		a.Lost++
	}
}
