package viator

import (
	"strings"
	"testing"

	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/shuttle"
	"viator/internal/topo"
)

func TestNetworkConstruction(t *testing.T) {
	n := NewNetwork(DefaultConfig(12, 1))
	if len(n.Ships) != 12 {
		t.Fatalf("ships = %d", len(n.Ships))
	}
	if !n.G.Connected() {
		t.Fatal("default graph disconnected")
	}
	// Classes cycle over all four.
	seen := map[ployon.Class]bool{}
	for _, s := range n.Ships {
		seen[s.Class] = true
	}
	if len(seen) != int(ployon.NumClasses) {
		t.Fatalf("classes = %v", seen)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, float64) {
		n := NewNetwork(DefaultConfig(16, 77))
		n.StartPulses(0.5)
		n.InjectJet(0, roles.Caching, 2)
		for i := 0; i < 30; i++ {
			src := n.K.Rand.Intn(16)
			dst := n.K.Rand.Intn(16)
			if src != dst {
				n.SendShuttle(n.NewShuttle(shuttle.Data, src, dst), "")
			}
		}
		n.Run(20)
		return n.DeliveredShuttles, n.Snapshot().RoleEntropy
	}
	d1, e1 := run()
	d2, e2 := run()
	if d1 != d2 || e1 != e2 {
		t.Fatalf("replay diverged: (%d,%v) vs (%d,%v)", d1, e1, d2, e2)
	}
}

func TestShuttleDelivery(t *testing.T) {
	cfg := DefaultConfig(8, 3)
	cfg.Graph = topo.Ring(8)
	n := NewNetwork(cfg)
	sh := n.NewShuttle(shuttle.Data, 0, 4)
	if !n.SendShuttle(sh, "") {
		t.Fatal("send failed")
	}
	n.Run(10)
	if n.DeliveredShuttles != 1 {
		t.Fatalf("delivered = %d (rejected=%d lost=%d)",
			n.DeliveredShuttles, n.RejectedShuttles, n.LostShuttles)
	}
	if n.Ships[4].Docked != 1 {
		t.Fatal("destination ship did not dock")
	}
}

func TestMorphInFlightFixesIncongruence(t *testing.T) {
	// Without in-flight morphing, a client-shaped shuttle is rejected at
	// a server ship; with it, accepted.
	mk := func(morph bool) (delivered, rejected uint64) {
		cfg := DefaultConfig(2, 5)
		cfg.Graph = topo.Line(2)
		cfg.MorphInFlight = morph
		cfg.ClassOf = func(i int) ployon.Class {
			if i == 0 {
				return ployon.ClassRelay
			}
			return ployon.ClassServer
		}
		n := NewNetwork(cfg)
		n.SendShuttle(n.NewShuttle(shuttle.Data, 0, 1), "")
		n.Run(5)
		return n.DeliveredShuttles, n.RejectedShuttles
	}
	d, r := mk(false)
	if d != 0 || r != 1 {
		t.Fatalf("no-morph: delivered=%d rejected=%d", d, r)
	}
	d, r = mk(true)
	if d != 1 || r != 0 {
		t.Fatalf("morph: delivered=%d rejected=%d", d, r)
	}
}

func TestJetEpidemicCoverage(t *testing.T) {
	cfg := DefaultConfig(16, 9)
	cfg.Graph = topo.Grid(4, 4)
	n := NewNetwork(cfg)
	n.InjectJet(0, roles.Boosting, 3)
	n.Run(30)
	cov := n.RoleCoverage(roles.Boosting)
	if cov < 0.5 {
		t.Fatalf("jet coverage = %v, want broad epidemic spread", cov)
	}
}

func TestSnapshotAndDOT(t *testing.T) {
	n := NewNetwork(DefaultConfig(8, 11))
	n.Ships[0].SetModalRole(roles.Fusion)
	n.KillShip(1)
	sn := n.Snapshot()
	if sn.Alive != 7 {
		t.Fatalf("alive = %d", sn.Alive)
	}
	if sn.RoleCounts[roles.Fusion] != 1 {
		t.Fatalf("role counts = %v", sn.RoleCounts)
	}
	out := sn.String()
	if !strings.Contains(out, "fusion") {
		t.Fatalf("snapshot string: %s", out)
	}
	dot := n.DOT()
	if !strings.Contains(dot, "0:fusion") || !strings.Contains(dot, "1:dead") {
		t.Fatalf("dot: %s", dot)
	}
}

func TestPulsesDriveGossipAndSweep(t *testing.T) {
	cfg := DefaultConfig(10, 13)
	cfg.UnfairFraction = 0.1 // ship 0 unfair
	n := NewNetwork(cfg)
	n.FactsEverywhere("w", 0.6) // weak facts that decay below 0.5 quickly
	n.StartPulses(0.5)
	n.Run(40)
	if len(n.Community.ExcludedIDs()) == 0 {
		t.Fatal("gossip did not exclude the unfair ship")
	}
	// Weak facts were swept.
	if kb := n.Ships[5].KB; kb.Evicted == 0 || len(kb.Facts(n.K.Now())) != 0 {
		t.Fatalf("facts not swept: %d evicted, %v alive", kb.Evicted, kb.Facts(n.K.Now()))
	}
	n.StopPulses()
	if fired := n.K.Run(60); fired != 0 {
		t.Fatalf("pulses still firing after stop: %d events", fired)
	}
}

func TestRoleCoverageIgnoresDead(t *testing.T) {
	cfg := DefaultConfig(4, 15)
	cfg.Graph = topo.Ring(4)
	n := NewNetwork(cfg)
	for _, s := range n.Ships {
		s.SetModalRole(roles.Caching)
	}
	n.KillShip(0)
	if cov := n.RoleCoverage(roles.Caching); cov != 1.0 {
		t.Fatalf("coverage = %v", cov)
	}
}

// TestFailedForwardAccounting is the regression test for the mid-path
// accounting gap: a shuttle whose forward fails at an intermediate hop
// bumped LostShuttles, but the packet was never finalized in netsim, so
// packet-level delivered/dropped tallies no longer summed to the packets
// injected. The routeless drop is now recorded via Net.Drop.
func TestFailedForwardAccounting(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.Graph = topo.Line(3)
	n := NewNetwork(cfg)
	sh := n.NewShuttle(shuttle.Data, 0, 2)
	if !n.SendShuttle(sh, "") {
		t.Fatal("send failed")
	}
	// While the packet is still on the 0→1 link, the 1→2 hop dies and a
	// pulse re-routes; at ship 1 the shuttle has nowhere to go.
	n.K.At(0.0005, func() {
		n.G.SetUp(n.G.FindLink(1, 2), false)
		n.G.SetUp(n.G.FindLink(2, 1), false)
		n.Router.Pulse()
	})
	n.Run(5)
	if n.DeliveredShuttles != 0 || n.LostShuttles != 1 {
		t.Fatalf("delivered=%d lost=%d, want 0/1", n.DeliveredShuttles, n.LostShuttles)
	}
	if n.Net.DroppedRoute != 1 {
		t.Fatalf("DroppedRoute = %d, want 1", n.Net.DroppedRoute)
	}
	// Shuttle-level and packet-level accounting reconcile: the single
	// injected packet was finalized in exactly one bucket.
	// Deliver records each end-to-end delivery in the latency sample.
	finalized := uint64(n.Net.Latency.N()) + n.Net.DroppedRoute + n.Net.DroppedQ +
		n.Net.DroppedRED + n.Net.DroppedLoss + n.Net.DroppedTTL
	if finalized != 1 {
		t.Fatalf("finalized packets = %d, want 1", finalized)
	}
}

// TestSnapshotBarCapped keeps thousand-ship snapshots printable: the role
// bars saturate at snapshotBarMax while the printed counts stay exact.
func TestSnapshotBarCapped(t *testing.T) {
	sn := &Snapshot{RoleCounts: map[roles.Kind]int{roles.Caching: 500, roles.Boosting: 3}}
	out := sn.String()
	if strings.Contains(out, strings.Repeat("#", snapshotBarMax+1)) {
		t.Fatal("role bar exceeds cap")
	}
	if !strings.Contains(out, "(500)") || !strings.Contains(out, "(3)") {
		t.Fatalf("exact counts missing:\n%s", out)
	}
	if !strings.Contains(out, strings.Repeat("#", 3)+" (3)") {
		t.Fatalf("small bars must stay exact:\n%s", out)
	}
}
