package baseline

import (
	"testing"

	"viator/internal/netsim"
	"viator/internal/routing"
	"viator/internal/sim"
	"viator/internal/topo"
)

// Passive is a classic store-and-forward network: packets follow static
// shortest-path routes, nodes perform no processing, and there is no
// deployment mechanism of any kind.
type Passive struct {
	K   *sim.Kernel
	Net *netsim.Net
	R   *routing.Static

	Delivered uint64
	Lost      uint64
}

// NewPassive wires a passive network over g.
func NewPassive(k *sim.Kernel, g *topo.Graph) *Passive {
	p := &Passive{K: k, Net: netsim.New(k, g), R: routing.NewStatic(g)}
	p.Net.OnReceive(func(at topo.NodeID, pkt *netsim.Packet) {
		if at == pkt.Dst {
			p.Delivered++
			p.Net.Deliver(pkt)
			return
		}
		next := p.R.NextHop(at, pkt.Dst)
		if next == -1 || !p.Net.Send(at, next, pkt) {
			p.Lost++
		}
	})
	return p
}

// Send injects a packet at src toward dst; false when the first hop fails.
func (p *Passive) Send(src, dst topo.NodeID, size int) bool {
	pkt := p.Net.NewPacket(src, dst, size, "data", nil)
	next := p.R.NextHop(src, dst)
	if next == -1 {
		p.Lost++
		return false
	}
	return p.Net.Send(src, next, pkt)
}

func TestPassiveDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.Grid(3, 3)
	p := NewPassive(k, g)
	for i := 0; i < 10; i++ {
		if !p.Send(0, 8, 500) {
			t.Fatal("send failed")
		}
	}
	k.Run(60)
	if p.Delivered != 10 || p.Lost != 0 {
		t.Fatalf("delivered=%d lost=%d", p.Delivered, p.Lost)
	}
	if p.Net.Latency.N() != 10 {
		t.Fatal("latency not recorded")
	}
}

func TestPassiveLosesOnPartition(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.New()
	g.AddNodes(2)
	p := NewPassive(k, g)
	if p.Send(0, 1, 100) {
		t.Fatal("send across partition succeeded")
	}
	if p.Lost != 1 {
		t.Fatalf("lost = %d", p.Lost)
	}
}

func TestPassiveStaleRoutesBlackhole(t *testing.T) {
	// The passive rung's defining weakness: after a link dies, packets are
	// lost until someone manually recomputes.
	k := sim.NewKernel(1)
	g := topo.Ring(6)
	p := NewPassive(k, g)
	p.Send(0, 3, 100)
	k.Run(10)
	first := p.Delivered
	// Kill both directions of the link the route uses.
	path := p.R.Path(0, 3)
	g.SetUp(g.FindLink(path[0], path[1]), false)
	g.SetUp(g.FindLink(path[1], path[0]), false)
	p.Send(0, 3, 100)
	k.Run(20)
	if p.Delivered != first {
		t.Fatal("stale route delivered")
	}
	p.R.Recompute()
	p.Send(0, 3, 100)
	k.Run(30)
	if p.Delivered != first+1 {
		t.Fatal("recovery after recompute failed")
	}
}
