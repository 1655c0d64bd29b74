package netsim_test

import (
	"fmt"

	"viator/internal/netsim"
	"viator/internal/sim"
	"viator/internal/topo"
)

// ExampleNet builds a two-node transport, sends one packet and watches it
// arrive after serialization plus propagation: 500 bytes at 1000 B/s is
// 0.5 s on the wire, plus 0.1 s of propagation delay.
func ExampleNet() {
	k := sim.NewKernel(42)
	g := topo.New()
	g.AddNodes(2)
	g.ConnectBoth(0, 1, 1)

	n := netsim.New(k, g)
	n.SetAllLinkProps(netsim.LinkProps{Bandwidth: 1000, Delay: 0.1, QueueCap: 64 << 10})
	n.OnReceive(func(at topo.NodeID, p *netsim.Packet) {
		fmt.Printf("node %d got packet %d (%d bytes) at t=%v\n", at, p.ID, p.Size, k.Now())
		n.Deliver(p) // record end-to-end latency
	})

	p := n.NewPacket(0, 1, 500, "data", nil)
	if n.Send(0, 1, p) {
		fmt.Println("packet accepted")
	}
	k.Run(10)
	fmt.Printf("delivered=%d mean latency=%vs\n", n.Delivered, n.Latency.Mean())
	// Output:
	// packet accepted
	// node 1 got packet 1 (500 bytes) at t=0.6
	// delivered=1 mean latency=0.6s
}

// ExampleNet_forwarding shows the multi-hop pattern every router in the
// repository uses: the receive callback re-sends packets that have not
// reached their destination.
func ExampleNet_forwarding() {
	k := sim.NewKernel(42)
	g := topo.Line(4) // 0 - 1 - 2 - 3
	n := netsim.New(k, g)
	n.OnReceive(func(at topo.NodeID, p *netsim.Packet) {
		if at == p.Dst {
			fmt.Printf("arrived at %d after %d hops\n", at, p.Hops)
			return
		}
		n.Send(at, at+1, p) // naive line forwarding
	})
	n.Send(0, 1, n.NewPacket(0, 3, 100, "data", nil))
	k.Run(10)
	// Output:
	// arrived at 3 after 3 hops
}
