package netsim

import (
	"math"
	"testing"

	"viator/internal/allocpin"
	"viator/internal/sim"
	"viator/internal/topo"
)

func newTrunkHarness(props LinkProps) (*sim.Kernel, *Trunk, *[]struct {
	p  *Packet
	at sim.Time
}) {
	k := sim.NewKernel(1)
	var out []struct {
		p  *Packet
		at sim.Time
	}
	t := NewTrunk(k, props, func(p *Packet, at sim.Time) {
		out = append(out, struct {
			p  *Packet
			at sim.Time
		}{p, at})
	})
	return k, t, &out
}

func TestTrunkSerializesAndStampsArrival(t *testing.T) {
	props := LinkProps{Bandwidth: 1000, Delay: 0.25, QueueCap: 1 << 20}
	k, tr, out := newTrunkHarness(props)
	p1 := &Packet{ID: 1, Size: 500, TTL: 8}
	p2 := &Packet{ID: 2, Size: 250, TTL: 8}
	k.At(0.0, func() {
		if !tr.Send(p1) || !tr.Send(p2) {
			t.Error("sends rejected on an empty trunk")
		}
	})
	k.Run(10)
	got := *out
	if len(got) != 2 {
		t.Fatalf("egress count = %d, want 2", len(got))
	}
	// p1 serializes over [0, 0.5); egress at 0.5 with arrival 0.75.
	if got[0].p.ID != 1 || got[0].at != 0.75 {
		t.Fatalf("first egress = pkt %d at %v, want pkt 1 at 0.75", got[0].p.ID, got[0].at)
	}
	// p2 serializes over [0.5, 0.75); egress at 0.75 with arrival 1.0.
	if got[1].p.ID != 2 || got[1].at != 1.0 {
		t.Fatalf("second egress = pkt %d at %v, want pkt 2 at 1.0", got[1].p.ID, got[1].at)
	}
	if got[0].p.Hops != 1 || got[0].p.TTL != 7 {
		t.Fatalf("hops/TTL not stamped: %d/%d", got[0].p.Hops, got[0].p.TTL)
	}
	if tr.Sent != 2 || tr.Bytes != 750 {
		t.Fatalf("Sent=%d Bytes=%d", tr.Sent, tr.Bytes)
	}
}

// Every egress arrival is at least Delay beyond the kernel clock at
// egress time — the lookahead contract the sharded executor relies on.
func TestTrunkEgressHonorsLookahead(t *testing.T) {
	props := LinkProps{Bandwidth: 5000, Delay: 0.1, QueueCap: 4 << 10, LossProb: 0.2}
	k := sim.NewKernel(3)
	var tr *Trunk
	tr = NewTrunk(k, props, func(p *Packet, at sim.Time) {
		if at < k.Now()+props.Delay {
			t.Errorf("egress at clock %v arrives %v, violates lookahead %v", k.Now(), at, props.Delay)
		}
	})
	rng := sim.NewRNG(9)
	for i := 0; i < 200; i++ {
		at := rng.Float64() * 5
		sz := 100 + rng.Intn(400)
		k.At(at, func() { tr.Send(&Packet{Size: sz, TTL: 4}) })
	}
	k.Run(20)
	if tr.Sent == 0 || tr.DroppedLoss == 0 {
		t.Fatalf("want both deliveries and losses, got sent=%d lost=%d", tr.Sent, tr.DroppedLoss)
	}
}

func TestTrunkDropTaxonomy(t *testing.T) {
	props := LinkProps{Bandwidth: 100, Delay: 0.01, QueueCap: 300}
	k, tr, out := newTrunkHarness(props)
	k.At(0, func() {
		tr.Send(&Packet{Size: 200, TTL: 0}) // TTL exhausted
		tr.Send(&Packet{Size: 200, TTL: 8}) // idle link: straight to wire
		tr.Send(&Packet{Size: 250, TTL: 8}) // queued (head-of-line busy)
		tr.Send(&Packet{Size: 100, TTL: 8}) // 250+100 > 300: tail drop
	})
	k.Run(10)
	if tr.DroppedTTL != 1 || tr.DroppedQ != 1 {
		t.Fatalf("dropTTL=%d dropQ=%d, want 1/1", tr.DroppedTTL, tr.DroppedQ)
	}
	if len(*out) != 2 {
		t.Fatalf("egress count = %d, want 2", len(*out))
	}
}

func TestTrunkREDDropsEarly(t *testing.T) {
	props := LinkProps{Bandwidth: 10, Delay: 0.01, QueueCap: 10000, REDMin: 100, REDMaxP: 1.0}
	k, tr, _ := newTrunkHarness(props)
	red := 0
	k.At(0, func() {
		for i := 0; i < 50; i++ {
			tr.Send(&Packet{Size: 100, TTL: 8})
		}
		red = int(tr.DroppedRED)
	})
	k.Run(0.01)
	if red == 0 {
		t.Fatal("RED never dropped despite occupancy past REDMin with maxP=1")
	}
}

// The trunk steady state — send, serialize, egress — is allocation-free
// once the queue ring is warm.
func TestTrunkSteadyStateAllocFree(t *testing.T) {
	props := LinkProps{Bandwidth: 1e6, Delay: 0.001, QueueCap: 1 << 20}
	k := sim.NewKernel(5)
	sunk := 0
	tr := NewTrunk(k, props, func(p *Packet, at sim.Time) { sunk++ })
	pkts := make([]*Packet, 64)
	for i := range pkts {
		pkts[i] = &Packet{Size: 256, TTL: 64}
	}
	for _, p := range pkts {
		tr.Send(p)
	}
	k.Run(math.Inf(1))
	i := 0
	allocpin.Zero(t, 2000, func() {
		p := pkts[i&63]
		p.TTL = 64
		i++
		tr.Send(p)
		k.Run(math.Inf(1))
	}, "(*Trunk).Send", "(*Trunk).startTx", "(*Trunk).finishTx")
	if sunk == 0 {
		t.Fatal("no packets egressed")
	}
}

// Trunks and regular links on the same kernel interleave without
// interference (a shard runs both).
func TestTrunkCoexistsWithNet(t *testing.T) {
	k := sim.NewKernel(7)
	g := topo.New()
	g.AddNodes(2)
	g.ConnectBoth(0, 1, 1)
	n := New(k, g)
	delivered := 0
	n.OnReceive(func(at topo.NodeID, p *Packet) { delivered++ })
	egressed := 0
	tr := NewTrunk(k, LinkProps{Bandwidth: 1e5, Delay: 0.05, QueueCap: 1 << 16},
		func(p *Packet, at sim.Time) { egressed++ })
	k.At(0, func() {
		n.Send(0, 1, n.NewPacket(0, 1, 100, "local", nil))
		tr.Send(&Packet{Size: 100, TTL: 8})
	})
	k.Run(1)
	if delivered != 1 || egressed != 1 {
		t.Fatalf("delivered=%d egressed=%d, want 1/1", delivered, egressed)
	}
}
