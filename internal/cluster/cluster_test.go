package cluster

import (
	"errors"
	"testing"

	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/ship"
	"viator/internal/sim"
)

func newShip(t testing.TB, id ployon.ID, class ployon.Class, fair bool) *ship.Ship {
	t.Helper()
	cfg := ship.DefaultConfig(id, class)
	cfg.Fair = fair
	s := ship.New(cfg)
	if err := s.Birth(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAddAndSize(t *testing.T) {
	c := New(DefaultConfig(), sim.NewRNG(1))
	s := newShip(t, 1, ployon.ClassServer, true)
	c.Add(s)
	c.Add(s) // duplicate ignored
	if len(c.members) != 1 {
		t.Fatalf("size = %d", len(c.members))
	}
	m, ok := c.members[1]
	if !ok || m.Reputation != 1.0 || m.Excluded {
		t.Fatalf("member = %+v", m)
	}
}

func TestGossipExcludesUnfairShips(t *testing.T) {
	c := New(DefaultConfig(), sim.NewRNG(2))
	for i := 0; i < 10; i++ {
		c.Add(newShip(t, ployon.ID(i+1), ployon.ClassServer, i != 0)) // ship 1 unfair
	}
	for round := 0; round < 50; round++ {
		c.GossipRound()
	}
	excluded := c.ExcludedIDs()
	if len(excluded) != 1 || excluded[0] != 1 {
		t.Fatalf("excluded = %v", excluded)
	}
	if c.Lies == 0 {
		t.Fatal("no lies detected")
	}
	// Fair ships keep high reputation.
	for i := 2; i <= 10; i++ {
		m := c.members[ployon.ID(i)]
		if m.Reputation < 0.9 {
			t.Fatalf("fair ship %d reputation %v", i, m.Reputation)
		}
	}
}

func TestFairCommunityNoExclusions(t *testing.T) {
	c := New(DefaultConfig(), sim.NewRNG(3))
	for i := 0; i < 8; i++ {
		c.Add(newShip(t, ployon.ID(i+1), ployon.ClassClient, true))
	}
	for round := 0; round < 100; round++ {
		c.GossipRound()
	}
	if len(c.ExcludedIDs()) != 0 {
		t.Fatalf("fair ships excluded: %v", c.ExcludedIDs())
	}
}

func TestClustersGroupByClassShape(t *testing.T) {
	c := New(DefaultConfig(), sim.NewRNG(4))
	// 4 servers + 4 relays: two well-separated shape groups.
	for i := 0; i < 4; i++ {
		c.Add(newShip(t, ployon.ID(i+1), ployon.ClassServer, true))
	}
	for i := 0; i < 4; i++ {
		c.Add(newShip(t, ployon.ID(i+10), ployon.ClassRelay, true))
	}
	n := c.FormClusters()
	if n != 2 {
		t.Fatalf("clusters = %d, want 2", n)
	}
	cl := clusters(c)
	sizes := []int{len(cl[0]), len(cl[1])}
	if sizes[0] != 4 || sizes[1] != 4 {
		t.Fatalf("cluster sizes = %v", sizes)
	}
}

func TestExcludedShipsLeaveClusters(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg, sim.NewRNG(5))
	for i := 0; i < 6; i++ {
		c.Add(newShip(t, ployon.ID(i+1), ployon.ClassAgent, i != 0))
	}
	for round := 0; round < 60; round++ {
		c.GossipRound()
	}
	c.FormClusters()
	for _, ids := range clusters(c) {
		for _, id := range ids {
			if id == 1 {
				t.Fatal("excluded ship clustered")
			}
		}
	}
	if len(c.ActiveIDs()) != 5 {
		t.Fatalf("active = %v", c.ActiveIDs())
	}
}

func TestRepairResurrectsViaGenome(t *testing.T) {
	c := New(DefaultConfig(), sim.NewRNG(6))
	donor := newShip(t, 1, ployon.ClassServer, true)
	donor.SetModalRole(roles.Fusion)
	donor.KB.Observe("hot", 10, 0)
	victim := newShip(t, 2, ployon.ClassServer, true)
	c.Add(donor)
	c.Add(victim)
	victim.Kill()
	reborn, err := c.Repair(2, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reborn.State() != ship.Alive || reborn.ID != 100 {
		t.Fatalf("reborn = %+v", reborn.Ployon)
	}
	if reborn.ModalRole() != roles.Fusion {
		t.Fatalf("reborn modal = %v", reborn.ModalRole())
	}
	if !reborn.KB.Alive("hot", 1) {
		t.Fatal("knowledge not inherited")
	}
	if c.Repairs != 1 || len(c.members) != 3 {
		t.Fatalf("repairs=%d size=%d", c.Repairs, len(c.members))
	}
}

func TestRepairFailsWithoutDonor(t *testing.T) {
	c := New(DefaultConfig(), sim.NewRNG(7))
	victim := newShip(t, 1, ployon.ClassServer, true)
	other := newShip(t, 2, ployon.ClassRelay, true) // wrong class
	c.Add(victim)
	c.Add(other)
	victim.Kill()
	if _, err := c.Repair(1, 50, 0); !errors.Is(err, ErrNoDonor) {
		t.Fatalf("err = %v", err)
	}
}

func TestRepairRejectsLiveShip(t *testing.T) {
	c := New(DefaultConfig(), sim.NewRNG(8))
	s := newShip(t, 1, ployon.ClassServer, true)
	c.Add(s)
	if _, err := c.Repair(1, 2, 0); err == nil {
		t.Fatal("repaired a living ship")
	}
	if _, err := c.Repair(99, 2, 0); !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestKnowledgeCoupling(t *testing.T) {
	var sc CouplingScratch
	a := newShip(t, 1, ployon.ClassServer, true)
	b := newShip(t, 2, ployon.ClassServer, true)
	if KnowledgeCouplingInto(&sc, a, b, 0) != 0 {
		t.Fatal("empty stores coupled")
	}
	a.KB.Observe("x", 5, 0)
	a.KB.Observe("y", 5, 0)
	b.KB.Observe("y", 5, 0)
	b.KB.Observe("z", 5, 0)
	// Jaccard {x,y} vs {y,z} = 1/3.
	if got := KnowledgeCouplingInto(&sc, a, b, 0); got < 0.33 || got > 0.34 {
		t.Fatalf("coupling = %v", got)
	}
	// Structural coupling rises when facts are exchanged.
	b.KB.Observe("x", 5, 0)
	if KnowledgeCouplingInto(&sc, a, b, 0) <= 0.34 {
		t.Fatal("coupling did not rise after exchange")
	}
}

func TestDeadShipsNotActive(t *testing.T) {
	c := New(DefaultConfig(), sim.NewRNG(9))
	s := newShip(t, 1, ployon.ClassServer, true)
	c.Add(s)
	s.Kill()
	if len(c.ActiveIDs()) != 0 {
		t.Fatal("dead ship active")
	}
}
