package netsim

import (
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
				k.Drain()
			}
		}
		k.Drain()
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
				k.Drain()
			}
		}
		k.Drain()
	})
}
