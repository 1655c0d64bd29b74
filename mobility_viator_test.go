package viator

import (
	"testing"

	"viator/internal/hw"
	"viator/internal/mobility"
	"viator/internal/ployon"
	"viator/internal/ship"
	"viator/internal/shuttle"
	"viator/internal/topo"
	"viator/internal/vm"
)

func TestMobileWanderingNetworkDelivers(t *testing.T) {
	const ships = 14
	cfg := DefaultConfig(ships, 31)
	// Dense initial geometric layout; mobility will rewire it.
	g := topo.New()
	g.AddNodes(ships)
	cfg.Graph = g
	n := NewNetwork(cfg)
	model := mobility.NewRandomWaypoint(ships, 60, 1, 4, 0.5, n.K.Rand.Split())
	var cs mobility.ConnScratch
	cs.RefreshInto(n.G, model.Positions(), 40)
	n.Router.Pulse()
	m := n.EnableMobility(model, 40, 0.5)

	rng := n.K.Rand.Split()
	sent := 0
	n.K.Every(0.2, func() {
		src, dst := rng.Intn(ships), rng.Intn(ships)
		if src != dst {
			if n.SendShuttle(n.NewShuttle(shuttle.Data, src, dst), "") {
				sent++
			}
		}
	})
	n.Run(40)
	if m.Refreshes < 70 {
		t.Fatalf("refreshes = %d", m.Refreshes)
	}
	if sent == 0 || n.DeliveredShuttles == 0 {
		t.Fatalf("mobile WN carried nothing: sent=%d delivered=%d", sent, n.DeliveredShuttles)
	}
	// Most launched shuttles arrive despite continuous rewiring (radius
	// 40 over a 60-arena keeps the graph mostly connected).
	frac := float64(n.DeliveredShuttles) / float64(sent)
	if frac < 0.6 {
		t.Fatalf("delivery fraction %v under mobility", frac)
	}
}

func TestMobilityDetectsPartitions(t *testing.T) {
	const ships = 6
	cfg := DefaultConfig(ships, 33)
	g := topo.New()
	g.AddNodes(ships)
	cfg.Graph = g
	n := NewNetwork(cfg)
	// Tiny radio range in a huge arena: almost always partitioned.
	model := mobility.NewRandomWaypoint(ships, 500, 1, 3, 0, n.K.Rand.Split())
	m := n.EnableMobility(model, 10, 1)
	n.Run(20)
	if m.Partitions == 0 {
		t.Fatal("no partitions detected in a sparse arena")
	}
}

func TestShipDockNetbot(t *testing.T) {
	s := ship.New(ship.DefaultConfig(1, ployon.ClassServer))
	s.Birth()
	bot := &hw.Netbot{
		Name:      "parity",
		Bitstream: hw.Parity(8, 8),
		Driver:    vm.MustAssemble("PUSH 7\nHALT"),
	}
	lat, err := s.DockNetbot(bot, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("netbot docked for free")
	}
	if !s.OS.Store.Has("driver:parity") {
		t.Fatal("driver not delivered")
	}
	// The hardware is live: parity of 3 ones is 1.
	out, err := s.Fabric.Eval([]bool{true, true, true, false, false, false, false, false})
	if err != nil || !out[0] {
		t.Fatalf("netbot circuit inert: %v %v", out, err)
	}
	// A 2G ship (no fabric) refuses netbots.
	cfg := ship.DefaultConfig(2, ployon.ClassServer)
	cfg.Generation = 2
	s2 := ship.New(cfg)
	s2.Birth()
	if _, err := s2.DockNetbot(bot, 0); err == nil {
		t.Fatal("2G ship accepted hardware")
	}
}
