package routing

import (
	"testing"

	"viator/internal/sim"
	"viator/internal/topo"
)

func TestStaticAgreesWithDijkstra(t *testing.T) {
	g := topo.PaperFigure()
	r := NewStatic(g)
	for src := 0; src < g.N(); src++ {
		spt := g.ComputeInto(nil, nil, topo.NodeID(src))
		for dst := 0; dst < g.N(); dst++ {
			if r.tables[src].Dist[dst] != spt.Dist[dst] {
				t.Fatalf("cost mismatch %d->%d", src, dst)
			}
		}
	}
	if r.NextHop(0, 0) != 0 {
		t.Fatal("self next hop")
	}
}

func TestStaticStaleUntilRecompute(t *testing.T) {
	g := topo.Line(3)
	r := NewStatic(g)
	if r.NextHop(0, 2) != 1 {
		t.Fatal("initial route wrong")
	}
	// Break the middle link: static keeps routing into the void.
	li := g.FindLink(1, 2)
	g.SetUp(li, false)
	if r.NextHop(0, 2) != 1 {
		t.Fatal("static should be stale")
	}
	r.Recompute()
	if r.NextHop(0, 2) != -1 {
		t.Fatal("recompute did not see failure")
	}
	if r.Recomputes != 2 {
		t.Fatalf("recomputes = %d", r.Recomputes)
	}
}

func TestAODVDiscoveryAndCache(t *testing.T) {
	g := topo.Line(5)
	a := NewAODV(g)
	p := a.Route(0, 4)
	if len(p) != 5 || p[0] != 0 || p[4] != 4 {
		t.Fatalf("path = %v", p)
	}
	if a.Discoveries != 1 || a.ControlMsgs == 0 {
		t.Fatalf("discoveries=%d ctrl=%d", a.Discoveries, a.ControlMsgs)
	}
	// Second route: cache hit, no new discovery.
	a.Route(0, 4)
	if a.Discoveries != 1 || a.CacheHits != 1 {
		t.Fatalf("cache not used: %d/%d", a.Discoveries, a.CacheHits)
	}
}

func TestAODVRediscoversAfterFailure(t *testing.T) {
	g := topo.Ring(6)
	a := NewAODV(g)
	p1 := a.Route(0, 3)
	if p1 == nil {
		t.Fatal("no route")
	}
	// Break the first hop of the cached path.
	li := g.FindLink(p1[0], p1[1])
	g.SetUp(li, false)
	g.SetUp(g.FindLink(p1[1], p1[0]), false)
	p2 := a.Route(0, 3)
	if p2 == nil {
		t.Fatal("ring should still connect")
	}
	if a.Discoveries != 2 {
		t.Fatalf("no rediscovery: %d", a.Discoveries)
	}
	// New path avoids the dead link.
	for i := 0; i+1 < len(p2); i++ {
		if g.FindLink(p2[i], p2[i+1]) == -1 {
			t.Fatal("path uses dead link")
		}
	}
}

func TestAODVUnreachable(t *testing.T) {
	g := topo.New()
	g.AddNodes(2)
	a := NewAODV(g)
	if a.Route(0, 1) != nil {
		t.Fatal("route across partition")
	}
}

func TestAdaptiveAvoidsCongestion(t *testing.T) {
	// Two routes 0→3: short (0-1-3) and long (0-2-3 with higher cost).
	g := topo.New()
	g.AddNodes(4)
	g.ConnectBoth(0, 1, 1)
	g.ConnectBoth(1, 3, 1)
	g.ConnectBoth(0, 2, 1.5)
	g.ConnectBoth(2, 3, 1.5)
	a := NewAdaptive(g, 5)
	if a.NextHop("", 0, 3) != 1 {
		t.Fatal("uncongested route should take the short path")
	}
	// Saturate the short path's first link.
	li := g.FindLink(0, 1)
	for i := 0; i < 10; i++ {
		a.ObserveUtilization(li, 0.95)
	}
	a.Pulse()
	if a.NextHop("", 0, 3) != 2 {
		t.Fatal("adaptive router did not avoid congestion")
	}
	// Utilization cools: route returns.
	for i := 0; i < 40; i++ {
		a.ObserveUtilization(li, 0)
	}
	a.Pulse()
	if a.NextHop("", 0, 3) != 1 {
		t.Fatal("route did not recover after congestion cleared")
	}
}

func TestOverlayBiases(t *testing.T) {
	g := topo.New()
	g.AddNodes(4)
	g.ConnectBoth(0, 1, 1)
	g.ConnectBoth(1, 3, 1)
	g.ConnectBoth(0, 2, 2)
	g.ConnectBoth(2, 3, 2)
	a := NewAdaptive(g, 3)
	a.SpawnOverlay("qos", 4)  // congestion-phobic
	a.SpawnOverlay("bulk", 0) // congestion-blind
	li := g.FindLink(0, 1)
	for i := 0; i < 10; i++ {
		a.ObserveUtilization(li, 0.8)
	}
	a.Pulse()
	// Bulk traffic keeps the short path; QoS class detours.
	if a.NextHop("bulk", 0, 3) != 1 {
		t.Fatal("bulk class detoured")
	}
	if a.NextHop("qos", 0, 3) != 2 {
		t.Fatal("qos class did not detour")
	}
}

func TestAdaptiveTopologyOnDemand(t *testing.T) {
	// Spawning an overlay is cheap and deterministic per seed.
	rng := sim.NewRNG(1)
	g := topo.ConnectedWaxman(20, 0.3, 0.25, rng)
	a := NewAdaptive(g, 2)
	a.SpawnOverlay("media", 3)
	if p := walk(t, a, "media", 0, topo.NodeID(g.N()-1)); p == nil {
		t.Fatal("no overlay route in connected graph")
	}
	if a.Pulses != 0 {
		t.Fatalf("pulses = %d before any Pulse", a.Pulses)
	}
	a.Pulse()
	if a.Pulses != 1 {
		t.Fatalf("pulses = %d", a.Pulses)
	}
}
