package netsim

import (
	"math"
	"slices"
	"testing"
	"viator/internal/allocpin"

	"viator/internal/sim"
	"viator/internal/telemetry"
	"viator/internal/topo"
)

func pair() (*sim.Kernel, *topo.Graph, *Net) {
	k := sim.NewKernel(1)
	g := topo.New()
	g.AddNodes(2)
	g.ConnectBoth(0, 1, 1)
	return k, g, New(k, g)
}

func TestDeliveryAndTiming(t *testing.T) {
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1000, Delay: 0.5, QueueCap: 1 << 20})
	var gotAt sim.Time
	var got *Packet
	n.OnReceive(func(at topo.NodeID, p *Packet) { gotAt = k.Now(); got = p })
	p := n.NewPacket(0, 1, 500, "data", nil)
	if !n.Send(0, 1, p) {
		t.Fatal("send failed")
	}
	k.Run(10)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// 500 bytes at 1000 B/s = 0.5 s serialization + 0.5 s propagation.
	if math.Abs(gotAt-1.0) > 1e-9 {
		t.Fatalf("arrival at %v, want 1.0", gotAt)
	}
	if got.Hops != 1 || got.TTL != 63 {
		t.Fatalf("hops=%d ttl=%d", got.Hops, got.TTL)
	}
}

func TestSerializationQueueing(t *testing.T) {
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1000, Delay: 0, QueueCap: 1 << 20})
	var arrivals []sim.Time
	n.OnReceive(func(at topo.NodeID, p *Packet) { arrivals = append(arrivals, k.Now()) })
	for i := 0; i < 3; i++ {
		n.Send(0, 1, n.NewPacket(0, 1, 1000, "d", nil))
	}
	k.Run(10)
	want := []sim.Time{1, 2, 3}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i := range want {
		if math.Abs(arrivals[i]-want[i]) > 1e-9 {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 100, Delay: 0, QueueCap: 250})
	delivered := 0
	n.OnReceive(func(at topo.NodeID, p *Packet) { delivered++ })
	sent := 0
	for i := 0; i < 10; i++ {
		if n.Send(0, 1, n.NewPacket(0, 1, 100, "d", nil)) {
			sent++
		}
	}
	k.Run(100)
	if n.DroppedQ == 0 {
		t.Fatal("no queue drops despite tiny queue")
	}
	if delivered != sent {
		t.Fatalf("delivered %d != accepted %d", delivered, sent)
	}
}

func TestRandomLoss(t *testing.T) {
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1e9, Delay: 0, QueueCap: 1 << 30, LossProb: 0.5})
	delivered := 0
	n.OnReceive(func(at topo.NodeID, p *Packet) { delivered++ })
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send(0, 1, n.NewPacket(0, 1, 10, "d", nil))
	}
	k.Run(1000)
	frac := float64(delivered) / total
	if frac < 0.42 || frac > 0.58 {
		t.Fatalf("delivered fraction %v with 50%% loss", frac)
	}
	if n.DroppedLoss != uint64(total-delivered) {
		t.Fatalf("loss accounting: %d + %d != %d", delivered, n.DroppedLoss, total)
	}
}

func TestTTLExpiredDrop(t *testing.T) {
	k, _, n := pair()
	p := n.NewPacket(0, 1, 10, "d", nil)
	p.TTL = 0
	if n.Send(0, 1, p) {
		t.Fatal("expired packet accepted")
	}
	k.Run(1)
	if n.DroppedTTL != 1 {
		t.Fatalf("ttl drops = %d", n.DroppedTTL)
	}
}

func TestNoLink(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.New()
	g.AddNodes(2)
	n := New(k, g)
	if n.Send(0, 1, n.NewPacket(0, 1, 10, "d", nil)) {
		t.Fatal("send succeeded without a link")
	}
}

func TestUtilizationAndBytes(t *testing.T) {
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1000, Delay: 0, QueueCap: 1 << 20})
	n.OnReceive(func(at topo.NodeID, p *Packet) {})
	n.Send(0, 1, n.NewPacket(0, 1, 500, "d", nil)) // 0.5 s busy
	k.Run(1)
	if u := n.Utilization(0); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v", u)
	}
	if n.TotalBytes() != 500 {
		t.Fatalf("bytes = %d", n.TotalBytes())
	}
	st := n.Stats(0)
	if st.Sent != 1 || st.Bytes != 500 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEndToEndLatencyRecording(t *testing.T) {
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1000, Delay: 0.25, QueueCap: 1 << 20})
	n.OnReceive(func(at topo.NodeID, p *Packet) {
		if at == p.Dst {
			n.Deliver(p)
		}
	})
	n.Send(0, 1, n.NewPacket(0, 1, 250, "d", nil))
	k.Run(10)
	if n.Latency.N() != 1 {
		t.Fatal("latency not recorded")
	}
	if math.Abs(n.Latency.Mean()-0.5) > 1e-9 {
		t.Fatalf("latency = %v", n.Latency.Mean())
	}
}

func TestDynamicLinkGrowth(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.New()
	g.AddNodes(3)
	g.ConnectBoth(0, 1, 1)
	n := New(k, g)
	got := 0
	n.OnReceive(func(at topo.NodeID, p *Packet) { got++ })
	// Add a link after the net exists (metamorphosis does this).
	g.ConnectBoth(1, 2, 1)
	if !n.Send(1, 2, n.NewPacket(1, 2, 10, "d", nil)) {
		t.Fatal("send over late link failed")
	}
	k.Run(10)
	if got != 1 {
		t.Fatal("late link did not deliver")
	}
}

func TestMultiHopForwardingChain(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.Line(4)
	n := New(k, g)
	n.SetAllLinkProps(LinkProps{Bandwidth: 1e6, Delay: 0.001, QueueCap: 1 << 20})
	delivered := false
	n.OnReceive(func(at topo.NodeID, p *Packet) {
		if at == p.Dst {
			delivered = true
			n.Deliver(p)
			return
		}
		// naive forwarding along the line
		n.Send(at, at+1, p)
	})
	n.Send(0, 1, n.NewPacket(0, 3, 100, "d", nil))
	k.Run(10)
	if !delivered {
		t.Fatal("multi-hop packet lost")
	}
	if n.Latency.N() != 1 {
		t.Fatal("latency missing")
	}
}

func TestPacketIDsUnique(t *testing.T) {
	_, _, n := pair()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		p := n.NewPacket(0, 1, 1, "d", nil)
		if seen[p.ID] {
			t.Fatal("duplicate packet ID")
		}
		seen[p.ID] = true
	}
}

func TestREDEarlyDrop(t *testing.T) {
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{
		Bandwidth: 100, Delay: 0, QueueCap: 10000,
		REDMin: 1000, REDMaxP: 1.0,
	})
	n.OnReceive(func(at topo.NodeID, p *Packet) {})
	// Flood: occupancy passes REDMin long before QueueCap, so RED drops
	// appear while tail drops do not.
	for i := 0; i < 50; i++ {
		n.Send(0, 1, n.NewPacket(0, 1, 200, "d", nil))
	}
	k.Run(200)
	if n.DroppedRED == 0 {
		t.Fatal("no RED drops despite sustained overload")
	}
	if n.DroppedQ != 0 {
		t.Fatalf("tail drops despite RED headroom: %d", n.DroppedQ)
	}
}

func TestREDDisabledByDefault(t *testing.T) {
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 100, Delay: 0, QueueCap: 2000})
	n.OnReceive(func(at topo.NodeID, p *Packet) {})
	for i := 0; i < 50; i++ {
		n.Send(0, 1, n.NewPacket(0, 1, 200, "d", nil))
	}
	k.Run(200)
	if n.DroppedRED != 0 {
		t.Fatal("RED active without configuration")
	}
	if n.DroppedQ == 0 {
		t.Fatal("tail drop missing")
	}
}

func TestOversizeHeadOfLineExemption(t *testing.T) {
	// An idle link must accept a packet larger than its QueueCap: it goes
	// straight onto the wire and never occupies the queue.
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1000, Delay: 0, QueueCap: 100})
	delivered := 0
	n.OnReceive(func(at topo.NodeID, p *Packet) { delivered++ })
	if !n.Send(0, 1, n.NewPacket(0, 1, 5000, "jumbo", nil)) {
		t.Fatal("idle link refused the head-of-line packet")
	}
	k.Run(100)
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
}

func TestOversizeBoundedWhileBusy(t *testing.T) {
	// While the link is busy the exemption must not apply: an oversize
	// packet is tail-dropped instead of slipping past the cap into an
	// empty queue.
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1000, Delay: 0, QueueCap: 100})
	delivered := 0
	n.OnReceive(func(at topo.NodeID, p *Packet) { delivered++ })
	if !n.Send(0, 1, n.NewPacket(0, 1, 50, "head", nil)) {
		t.Fatal("first packet refused")
	}
	// Link is now transmitting (queue empty); the jumbo must be dropped.
	if n.Send(0, 1, n.NewPacket(0, 1, 5000, "jumbo", nil)) {
		t.Fatal("busy link accepted a packet exceeding its whole QueueCap")
	}
	if n.DroppedQ != 1 {
		t.Fatalf("DroppedQ = %d, want 1", n.DroppedQ)
	}
	k.Run(100)
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (head only)", delivered)
	}
}

func TestLinkTableSyncsOnTopologyGrowth(t *testing.T) {
	// Links added after the Net was built (mobility, metamorphosis) must
	// become sendable: the state table resyncs via topo.Graph.Version.
	k := sim.NewKernel(1)
	g := topo.New()
	g.AddNodes(3)
	g.ConnectBoth(0, 1, 1)
	n := New(k, g)
	delivered := 0
	n.OnReceive(func(at topo.NodeID, p *Packet) { delivered++ })
	g.ConnectBoth(1, 2, 1) // runtime topology growth
	if !n.Send(1, 2, n.NewPacket(1, 2, 100, "d", nil)) {
		t.Fatal("send over a link added after New failed")
	}
	k.Run(10)
	if delivered != 1 {
		t.Fatalf("delivered %d over the new link, want 1", delivered)
	}
}

func TestSendSteadyStateAllocations(t *testing.T) {
	// The transmit machinery itself must not allocate per packet: one
	// Send+deliver cycle costs exactly the packet object the caller makes.
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1e9, Delay: 0.0001, QueueCap: 1 << 30})
	n.OnReceive(func(at topo.NodeID, p *Packet) {})
	// Warm rings, arena and counter storage.
	for i := 0; i < 512; i++ {
		n.Send(0, 1, n.NewPacket(0, 1, 100, "w", nil))
	}
	k.Run(math.Inf(1))
	allocpin.Max(t, 500, 1, func() {
		n.Send(0, 1, n.NewPacket(0, 1, 100, "d", nil))
		k.Run(math.Inf(1))
	})
}

func TestDeliverSteadyStateAllocationsWithHistSink(t *testing.T) {
	// With the telemetry histogram installed as the latency sink, Deliver
	// is allocation-free in steady state: no retained-sample slice grows
	// per delivered packet (the pre-telemetry Summary sink amortized an
	// append per delivery — unbounded memory on stress scenarios).
	k, _, n := pair()
	n.LatencyHist = telemetry.NewHist()
	p := n.NewPacket(0, 1, 100, "d", nil)
	k.Run(1)
	allocpin.Zero(t, 1000, func() {
		n.Deliver(p)
	}, "(*Net).Deliver")
	if n.LatencyHist.Count() == 0 {
		t.Fatal("hist sink recorded nothing")
	}
	if n.Latency.N() != 0 {
		t.Fatalf("Summary still grew (%d) despite hist sink", n.Latency.N())
	}
}

func TestDeliverDefaultSinkIsExactSummary(t *testing.T) {
	// Without a hist sink, the exact-percentile Summary remains the
	// latency sink — paper tables depend on exact order statistics.
	k, _, n := pair()
	n.OnReceive(func(at topo.NodeID, p *Packet) { n.Deliver(p) })
	n.Send(0, 1, n.NewPacket(0, 1, 100, "d", nil))
	k.Run(10)
	if n.Latency.N() != 1 {
		t.Fatalf("Summary sink has %d samples, want 1", n.Latency.N())
	}
}

func TestQueueDepthHistObservesOccupancy(t *testing.T) {
	// With a queue-depth hist installed, every accepted enqueue records
	// the post-enqueue occupancy; the busy link's second packet must see
	// its own bytes on top of the backlog.
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1000, Delay: 0, QueueCap: 1 << 20})
	n.QueueHist = telemetry.NewHist()
	n.OnReceive(func(at topo.NodeID, p *Packet) {})
	n.Send(0, 1, n.NewPacket(0, 1, 500, "a", nil)) // goes straight to the wire; depth 500 recorded at enqueue
	n.Send(0, 1, n.NewPacket(0, 1, 300, "b", nil)) // queues behind it; depth 300 after a left the queue
	if n.QueueHist.Count() != 2 {
		t.Fatalf("queue hist count = %d, want 2", n.QueueHist.Count())
	}
	if n.QueueHist.Max() != 500 {
		t.Fatalf("max observed depth = %v, want 500", n.QueueHist.Max())
	}
	k.Run(math.Inf(1))
}

func TestDelayReconfigInFlightAllowsOvertaking(t *testing.T) {
	// Reconfiguring Delay downward while a packet is in flight lets a
	// later packet overtake it — delivery must still hand each arrival
	// event its own packet, in arrival-time order (the scanning path).
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1e6, Delay: 0.5, QueueCap: 1 << 20})
	var got []uint64
	n.OnReceive(func(at topo.NodeID, p *Packet) { got = append(got, p.ID) })
	n.Send(0, 1, n.NewPacket(0, 1, 100, "slow", nil)) // arrives ~0.5001
	k.At(0.001, func() {
		n.SetLinkProps(0, LinkProps{Bandwidth: 1e6, Delay: 0, QueueCap: 1 << 20})
		n.Send(0, 1, n.NewPacket(0, 1, 100, "fast", nil)) // arrives ~0.0011
	})
	k.Run(10)
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("delivery order = %v, want [2 1] (fast overtakes slow)", got)
	}
}

func TestSustainedBacklogKeepsFIFOThroughCompaction(t *testing.T) {
	// A queue that stays non-empty across hundreds of pops exercises the
	// ring-compaction path; order and accounting must be unaffected.
	k, _, n := pair()
	n.SetLinkProps(0, LinkProps{Bandwidth: 1000, Delay: 0.001, QueueCap: 1 << 20})
	var got []uint64
	n.OnReceive(func(at topo.NodeID, p *Packet) { got = append(got, p.ID) })
	const total = 500
	for i := 0; i < total; i++ {
		if !n.Send(0, 1, n.NewPacket(0, 1, 10, "d", nil)) {
			t.Fatalf("packet %d refused", i)
		}
	}
	k.Run(math.Inf(1))
	if len(got) != total {
		t.Fatalf("delivered %d of %d through the backlog", len(got), total)
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("FIFO broken at %d: got id %d", i, id)
		}
	}
}

// TestFirstSendGrowsLinkTableOnce pins the link-index growth a large
// topology build leaves to the first Send: with 50k links added after
// the transport last synced, that Send grows the index in one
// allocation, not one copy per append growth step, and gives the new
// links no state or closures. The bound is 2 because under the race
// detector slices.Grow's temporary becomes a real allocation.
func TestFirstSendGrowsLinkTableOnce(t *testing.T) {
	const links = 50_000
	// AllocsPerRun makes one warm-up call before the measured runs, and
	// each call needs a transport that has not yet seen the new links.
	type fixture struct {
		n *Net
		p *Packet
	}
	var fixtures []fixture
	for i := 0; i < 3; i++ {
		k, g, n := pair()
		// Warm the kernel arena and link 0's rings and callbacks, so the
		// measured Send's only growth is the table itself.
		n.Send(0, 1, n.NewPacket(0, 1, 100, "w", nil))
		k.Run(math.Inf(1))
		for g.Links() < links {
			g.ConnectBoth(0, 1, 1)
		}
		fixtures = append(fixtures, fixture{n, n.NewPacket(0, 1, 100, "d", nil)})
	}
	next := 0
	allocpin.Max(t, len(fixtures)-1, 2, func() {
		f := fixtures[next]
		next++
		if !f.n.Send(0, 1, f.p) {
			t.Fatal("send refused")
		}
	})
	for _, f := range fixtures {
		if got := len(f.n.linkIdx); got != links {
			t.Fatalf("link index holds %d links, want %d", got, links)
		}
	}
}

// TestUnusedLinksHoldNoState pins link state on first use: links that
// are never configured or sent on get no transport state, yet read
// exactly like an idle link at DefaultLinkProps.
func TestUnusedLinksHoldNoState(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.Line(51) // 100 links
	n := New(k, g)
	used := []int{g.FindLink(3, 4), g.FindLink(40, 39)}
	for _, li := range used {
		l := g.Link(li)
		for i := 0; i < 3; i++ {
			if !n.SendOnLink(li, n.NewPacket(l.From, l.To, 100+li, "d", nil)) {
				t.Fatalf("send on link %d refused", li)
			}
		}
	}
	k.Run(1)
	if len(n.links) != len(used) {
		t.Fatalf("dense table holds %d links after sends on %d, want %d", len(n.links), len(used), len(used))
	}
	var sum uint64
	for li := 0; li < g.Links(); li++ {
		if slices.Contains(used, li) {
			st := n.Stats(li)
			if st.Sent != 3 || n.Utilization(li) <= 0 {
				t.Fatalf("used link %d: stats %+v, utilization %v", li, st, n.Utilization(li))
			}
			sum += st.Bytes
			continue
		}
		if p := n.LinkProps(li); p != DefaultLinkProps() {
			t.Fatalf("unused link %d props %+v, want defaults", li, p)
		}
		if st := n.Stats(li); st != (LinkStats{}) {
			t.Fatalf("unused link %d stats %+v, want zero", li, st)
		}
		if u := n.Utilization(li); u != 0 {
			t.Fatalf("unused link %d utilization %v, want 0", li, u)
		}
	}
	if got := n.TotalBytes(); got != sum || sum != 3*uint64(100+used[0]+100+used[1]) {
		t.Fatalf("TotalBytes = %d, used links carried %d", got, sum)
	}
	if len(n.links) != len(used) {
		t.Fatalf("reads created state: dense table holds %d links", len(n.links))
	}

	// SetAllLinkProps covers the links that exist at the call; links the
	// graph gains later start at the defaults.
	slow := LinkProps{Bandwidth: 1000, Delay: 0.01, QueueCap: 1 << 20}
	n.SetAllLinkProps(slow)
	before := g.Links()
	g.ConnectBoth(0, 50, 1)
	for li := 0; li < g.Links(); li++ {
		want := slow
		if li >= before {
			want = DefaultLinkProps()
		}
		if p := n.LinkProps(li); p != want {
			t.Fatalf("link %d props %+v, want %+v", li, p, want)
		}
	}

	// Props set on a link that never sent are the ones its first send uses.
	late := g.FindLink(0, 50)
	n.SetLinkProps(late, slow)
	var arrived sim.Time
	n.OnReceive(func(at topo.NodeID, p *Packet) { arrived = k.Now() })
	start := k.Now()
	n.SendOnLink(late, n.NewPacket(0, 50, 1000, "d", nil))
	k.Run(start + 10)
	if st := n.Stats(late); st.Sent != 1 || st.BusyTime != 1 {
		t.Fatalf("late link stats %+v, want one packet at 1000 B/s", st)
	}
	if got := arrived - start; math.Abs(got-1.01) > 1e-9 {
		t.Fatalf("late packet took %v, want 1.01 s at the configured props", got)
	}
}
