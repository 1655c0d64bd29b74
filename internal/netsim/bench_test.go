package netsim

import (
	"math"
	"testing"

	"viator/internal/sim"
	"viator/internal/topo"
)

// BenchmarkNetsim measures the per-packet transmit path: enqueue onto a
// link's ring queue, one serialization event, one arrival event, delivery
// through the persistent per-link state machine. The single alloc/op is
// the packet itself.
func BenchmarkNetsim(b *testing.B) {
	b.Run("SendDeliver", func(b *testing.B) {
		b.ReportAllocs()
		k := sim.NewKernel(1)
		g := topo.New()
		g.AddNodes(2)
		g.Connect(0, 1, 1)
		n := New(k, g)
		n.SetLinkProps(0, LinkProps{Bandwidth: 1e9, Delay: 0.0001, QueueCap: 1 << 30})
		delivered := 0
		n.OnReceive(func(at topo.NodeID, p *Packet) { delivered++ })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Send(0, 1, n.NewPacket(0, 1, 1000, "bench", nil))
			if i%1024 == 1023 {
				k.Run(math.Inf(1))
			}
		}
		k.Run(math.Inf(1))
		b.StopTimer()
		if delivered != b.N {
			b.Fatalf("delivered %d of %d", delivered, b.N)
		}
	})
	b.Run("Forwarding", func(b *testing.B) {
		// Multi-hop: every delivery re-sends until the chain end, so one
		// op exercises queueing, arrival and the receive callback 4×.
		b.ReportAllocs()
		k := sim.NewKernel(1)
		g := topo.Line(5)
		n := New(k, g)
		n.SetAllLinkProps(LinkProps{Bandwidth: 1e9, Delay: 0.0001, QueueCap: 1 << 30})
		n.OnReceive(func(at topo.NodeID, p *Packet) {
			if at != p.Dst {
				n.Send(at, at+1, p)
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Send(0, 1, n.NewPacket(0, 4, 1000, "bench", nil))
			if i%256 == 255 {
				k.Run(math.Inf(1))
			}
		}
		k.Run(math.Inf(1))
	})
	b.Run("UtilizationSweep", func(b *testing.B) {
		// The per-refresh sweep S2 runs over every link to feed the
		// adaptive router: 200k links, 2% of which ever carried a packet.
		// One op is one Utilization read per link.
		b.ReportAllocs()
		k := sim.NewKernel(1)
		g := topo.Line(100_001)
		n := New(k, g)
		for li := 0; li < g.Links(); li += 50 {
			l := g.Link(li)
			n.SendOnLink(li, n.NewPacket(l.From, l.To, 1000, "bench", nil))
		}
		k.Run(1)
		var sum float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for li := 0; li < g.Links(); li++ {
				sum += n.Utilization(li)
			}
		}
		b.StopTimer()
		if sum <= 0 {
			b.Fatal("no link reported utilization")
		}
	})
}
