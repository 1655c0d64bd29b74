// Package viator is the public API of the Viator reproduction: a complete
// simulator of the paper's 4G Wandering Network — mobile, reconfigurable
// active nodes (ships) exchanging active packets (shuttles) over a
// packet-level network substrate, self-organizing through the four WLI
// principles (Dualistic Congruence, Self-Reference, Multidimensional
// Feedback, Pulsating Metamorphosis) — together with the baselines and
// the experiment harness that regenerates every table and figure of the
// paper as a measurable artifact.
//
// Quick start:
//
//	net := viator.NewNetwork(viator.DefaultConfig(16, 42))
//	net.InjectJet(0, roles.Caching, 3)
//	net.StartPulses(1.0)
//	net.Run(60)
//	fmt.Println(net.Snapshot())
package viator

import (
	"fmt"
	"sort"
	"strings"

	"viator/internal/cluster"
	"viator/internal/kq"
	"viator/internal/metamorph"
	"viator/internal/netsim"
	"viator/internal/ployon"
	"viator/internal/resonance"
	"viator/internal/roles"
	"viator/internal/routing"
	"viator/internal/ship"
	"viator/internal/shuttle"
	"viator/internal/sim"
	"viator/internal/stats"
	"viator/internal/telemetry"
	"viator/internal/topo"
	"viator/internal/trace"
	"viator/internal/vm"
)

// Config parameterizes a Wandering Network instance.
type Config struct {
	// Seed drives every random decision; equal seeds replay exactly.
	Seed uint64
	// Kernel, when non-nil, is the event kernel the network runs on
	// instead of a fresh one seeded from Seed — the injection point the
	// sharded executor uses to run several district networks on shard
	// kernels it owns. The kernel's RNG then drives every random decision.
	Kernel *sim.Kernel
	// Graph is the physical topology; nil selects a connected Waxman
	// graph of NumShips nodes.
	Graph *topo.Graph
	// NumShips is the fleet size when Graph is nil.
	NumShips int
	// Generation applies to every ship (1..4).
	Generation int
	// ClassOf assigns ship classes; nil cycles through all classes.
	ClassOf func(i int) ployon.Class
	// UnfairFraction marks this share of ships as misreporting (SRP).
	UnfairFraction float64
	// MorphInFlight enables shuttle self-morphing at the last hop (DCP).
	MorphInFlight bool
	// CongruenceThreshold overrides the ships' docking threshold.
	CongruenceThreshold float64
}

// DefaultConfig returns a 4G network of n ships.
func DefaultConfig(n int, seed uint64) Config {
	return Config{
		Seed:                seed,
		NumShips:            n,
		Generation:          4,
		MorphInFlight:       true,
		CongruenceThreshold: 0.7,
	}
}

// Network is one running Wandering Network.
type Network struct {
	cfg Config

	K     *sim.Kernel
	G     *topo.Graph
	Net   *netsim.Net
	Ships []*ship.Ship

	Router    *routing.Adaptive
	Community *cluster.Community
	Morph     *metamorph.Engine
	Resonance *resonance.Engine
	Trace     *trace.Log

	nextShuttleID ployon.ID
	pulses        *sim.Ticker

	// deadSlots lists fleet slots holding a dead ship (sorted ascending);
	// deadListed dedupes it. KillShip maintains both so the self-healing
	// pulse repairs from this list instead of scanning the full fleet.
	deadSlots  []int
	deadListed []bool

	// sweepScratch is the reusable eviction buffer for the pulse loop's
	// per-ship knowledge sweeps.
	sweepScratch []kq.FactID

	// Tel is the streaming telemetry stack, nil until EnableTelemetry.
	Tel *Telemetry

	// DeliveredShuttles counts shuttles that docked at their destination;
	// RejectedShuttles counts congruence rejections at the dock.
	DeliveredShuttles uint64
	RejectedShuttles  uint64
	LostShuttles      uint64
}

// NewNetwork builds the fleet, transport and control engines.
func NewNetwork(cfg Config) *Network {
	if cfg.Generation == 0 {
		cfg.Generation = 4
	}
	k := cfg.Kernel
	if k == nil {
		k = sim.NewKernel(cfg.Seed)
	}
	g := cfg.Graph
	if g == nil {
		g = topo.ConnectedWaxman(cfg.NumShips, 0.3, 0.25, k.Rand.Split())
	}
	n := &Network{
		cfg: cfg, K: k, G: g,
		Net:       netsim.New(k, g),
		Router:    routing.NewAdaptive(g, 4),
		Community: cluster.New(cluster.DefaultConfig(), k.Rand.Split()),
		Resonance: resonance.New(resonance.DefaultConfig()),
		Trace:     trace.New(4096),
	}
	classOf := cfg.ClassOf
	if classOf == nil {
		classOf = func(i int) ployon.Class { return ployon.Class(i % int(ployon.NumClasses)) }
	}
	unfair := int(cfg.UnfairFraction * float64(g.N()))
	for i := 0; i < g.N(); i++ {
		sc := ship.DefaultConfig(ployon.ID(i), classOf(i))
		sc.Generation = cfg.Generation
		if cfg.CongruenceThreshold > 0 {
			sc.CongruenceThreshold = cfg.CongruenceThreshold
		}
		sc.Fair = i >= unfair
		s := ship.New(sc)
		if err := s.Birth(); err != nil {
			panic(err)
		}
		n.Ships = append(n.Ships, s)
		n.Community.Add(s)
	}
	n.Morph = metamorph.New(metamorph.DefaultConfig(), n.Ships)
	n.deadListed = make([]bool, len(n.Ships))
	n.Net.OnReceive(n.receive)
	return n
}

// KillShip kills the ship in fleet slot i and records the slot on the
// self-healing dead-list. All simulator-internal deaths (churn, fault
// injection, experiments) go through here; a direct ship.Kill() still
// takes effect but is invisible to the healer's dead-list until the slot
// is re-reported.
func (n *Network) KillShip(i int) {
	n.Ships[i].Kill()
	n.noteDead(i)
}

// noteDead records slot i on the sorted dead-list, once.
func (n *Network) noteDead(i int) {
	if n.deadListed[i] {
		return
	}
	n.deadListed[i] = true
	n.deadSlots = append(n.deadSlots, i)
	// Sorted insert: the healer repairs in fleet-slot order, exactly like
	// the full-fleet scan it replaces.
	s := n.deadSlots
	for j := len(s) - 1; j > 0 && s[j] < s[j-1]; j-- {
		s[j], s[j-1] = s[j-1], s[j]
	}
}

// Now returns the current virtual time.
func (n *Network) Now() float64 { return n.K.Now() }

// Run advances the simulation to the given time.
func (n *Network) Run(until float64) { n.K.Run(until) }

// Ship returns ship i.
func (n *Network) Ship(i int) *ship.Ship { return n.Ships[i] }

// allocShuttleID hands out network-unique shuttle ids.
func (n *Network) allocShuttleID() ployon.ID {
	n.nextShuttleID++
	return n.nextShuttleID
}

// NewShuttle builds a shuttle from ship src to ship dst, shaped like its
// sender.
func (n *Network) NewShuttle(kind shuttle.Kind, src, dst int) *shuttle.Shuttle {
	sh := shuttle.New(n.allocShuttleID(), kind, int32(src), int32(dst), n.Ships[src].Class)
	sh.Shape = n.Ships[src].Shape // shuttles leave shaped like their sender
	return sh
}

// SendShuttle launches sh from its source over the adaptive router.
// With telemetry enabled, every network-crossing shuttle is scored on
// its overlay's QoS flow: counted as sent here, and as delivered with
// its end-to-end latency when its final packet lands (zero-hop src==dst
// docks never touch the network and are not scored).
func (n *Network) SendShuttle(sh *shuttle.Shuttle, overlay string) bool {
	src := topo.NodeID(sh.Src)
	dst := topo.NodeID(sh.Dst)
	if src == dst {
		n.dock(int(dst), sh)
		return true
	}
	var flowTag int32
	if n.Tel != nil {
		f := n.Tel.flowFor(overlay)
		n.Tel.QoS.Sent(f)
		flowTag = int32(f) + 1 // 0 stays "untagged"
	}
	next := n.Router.NextHop(overlay, src, dst)
	if next == -1 {
		n.LostShuttles++
		return false
	}
	pkt := n.Net.NewPacket(src, dst, sh.WireSize(), "shuttle:"+overlay, sh)
	pkt.Flow = flowTag
	if !n.Net.Send(src, next, pkt) {
		n.LostShuttles++
		return false
	}
	return true
}

// receive forwards in-flight shuttles and docks arrivals.
func (n *Network) receive(at topo.NodeID, pkt *netsim.Packet) {
	sh, ok := pkt.Payload.(*shuttle.Shuttle)
	if !ok {
		return // non-shuttle payloads are experiment-private
	}
	if at == pkt.Dst {
		n.Net.Deliver(pkt)
		if n.Tel != nil && pkt.Flow > 0 {
			// Network-level delivery: the shuttle reached its destination
			// ship, whatever the dock then decides (a congruence rejection
			// is an application outcome, not a transport failure).
			n.Tel.QoS.Delivered(telemetry.FlowID(pkt.Flow-1), n.K.Now()-pkt.Created)
		}
		n.dock(int(at), sh)
		return
	}
	overlay := strings.TrimPrefix(pkt.Class, "shuttle:")
	next := n.Router.NextHop(overlay, at, pkt.Dst)
	if next == -1 {
		// No route from here: the transport never sees this failure, so
		// finalize the packet explicitly — otherwise shuttle-level and
		// packet-level accounting drift apart (the shuttle was lost but
		// the packet was neither delivered nor counted dropped).
		n.Net.Drop(pkt)
		n.LostShuttles++
		return
	}
	if !n.Net.Send(at, next, pkt) {
		// Send recorded the specific transport drop (no link / queue
		// overflow / RED); only the shuttle-level tally is ours.
		n.LostShuttles++
	}
}

// dock lands a shuttle at ship i, applying in-flight morphing when the
// network is configured for it (the DCP experiment knob).
func (n *Network) dock(i int, sh *shuttle.Shuttle) {
	s := n.Ships[i]
	if s.State() != ship.Alive {
		n.LostShuttles++
		return
	}
	if n.cfg.MorphInFlight {
		sh.Morph(s.Shape, 1)
	}
	res, err := s.Dock(sh, n.Now())
	if err != nil {
		if res != nil && !res.Accepted {
			n.RejectedShuttles++
			n.Trace.Add(n.Now(), "reject", "ship %d rejected shuttle %d (congruence %.3f)", i, sh.ID, res.Congruence)
		} else {
			n.LostShuttles++
		}
		return
	}
	n.DeliveredShuttles++
	// Jets: forward replicas to random neighbors (epidemic spread).
	// Sending a shuttle leaves the graph as it is, so one neighbor list
	// serves every replica.
	var nbrs []topo.NodeID
	if len(res.Replicas) > 0 {
		nbrs = n.G.Neighbors(topo.NodeID(i))
	}
	for _, rep := range res.Replicas {
		if len(nbrs) == 0 {
			break
		}
		target := nbrs[n.K.Rand.Intn(len(nbrs))]
		rep.Src = int32(i)
		rep.Dst = int32(target)
		rep.Shape = s.Shape
		n.SendShuttle(rep, "")
	}
	if res.Reconfigured {
		n.Trace.Add(n.Now(), "genome", "ship %d reconfigured by shuttle %d", i, sh.ID)
	}
}

// JetProgram builds the standard management jet: set the carried role,
// emit a deployment fact, and replicate `fanout` times.
func JetProgram(k roles.Kind, fanout int) vm.Program {
	src := fmt.Sprintf(`
		PUSH %d
		HOST %d     ; set role
		POP
		PUSH %d
		PUSH 4
		HOST %d     ; emit deployment fact (weight 4)
		PUSH %d
		HOST %d     ; replicate
		HALT`,
		int(k), ship.HostSetRole,
		1000+int(k), ship.HostEmitFact,
		fanout, ship.HostReplicate)
	return vm.MustAssemble(src)
}

// InjectJet launches a self-replicating role-deployment jet at ship at.
// The jet sets the role wherever it lands and spawns fanout replicas per
// hop (bounded by the jet generation limit) — the 4G deployment scheme.
func (n *Network) InjectJet(at int, k roles.Kind, fanout int) {
	sh := n.NewShuttle(shuttle.Jet, at, at)
	sh.Code = vm.Encode(JetProgram(k, fanout))
	n.dock(at, sh)
}

// RoleCoverage returns the fraction of alive ships whose modal role is k.
func (n *Network) RoleCoverage(k roles.Kind) float64 {
	have, alive := 0, 0
	for _, s := range n.Ships {
		if s.State() != ship.Alive {
			continue
		}
		alive++
		if s.ModalRole() == k {
			have++
		}
	}
	if alive == 0 {
		return 0
	}
	return float64(have) / float64(alive)
}

// StartPulses arms the periodic autopoietic machinery: knowledge sweeps,
// router adaptation from link feedback, resonance observation and the
// community gossip round, every period seconds.
func (n *Network) StartPulses(period float64) {
	if n.pulses != nil {
		n.pulses.Stop()
	}
	n.pulses = n.K.Every(period, func() {
		now := n.Now()
		n.adaptRouter()
		for _, s := range n.Ships {
			if s.State() != ship.Alive {
				continue
			}
			n.sweepScratch = s.KB.SweepInto(n.sweepScratch, now)
			n.Resonance.Observe(s.KB, now)
		}
		n.Community.GossipRound()
	})
}

// adaptRouter feeds every link's utilization to the adaptive router and
// then pulses it. Links that never carried a packet are fed too, at 0:
// the router's smoothed estimate starts from a link's first sample.
func (n *Network) adaptRouter() {
	for li := 0; li < n.G.Links(); li++ {
		n.Router.ObserveUtilization(li, n.Net.Utilization(li))
	}
	n.Router.Pulse()
}

// StopPulses disarms the periodic machinery.
func (n *Network) StopPulses() {
	if n.pulses != nil {
		n.pulses.Stop()
		n.pulses = nil
	}
}

// Snapshot captures the observable state of the Wandering Network at one
// instant — the data behind Figure 1.
type Snapshot struct {
	Time        float64
	RoleCounts  map[roles.Kind]int
	RoleEntropy float64
	Overlays    []string
	Clusters    int
	Alive       int
	Excluded    int
}

// Snapshot takes a snapshot now.
func (n *Network) Snapshot() *Snapshot {
	sn := &Snapshot{Time: n.Now(), RoleCounts: make(map[roles.Kind]int)}
	for _, s := range n.Ships {
		if s.State() != ship.Alive {
			continue
		}
		sn.Alive++
		sn.RoleCounts[s.ModalRole()]++
	}
	sn.RoleEntropy = n.Morph.RoleEntropy()
	sn.Overlays = n.Router.Overlays()
	sn.Clusters = n.Community.FormClusters()
	sn.Excluded = n.Community.ExcludedCount()
	return sn
}

// snapshotBarMax caps the role-histogram bars in Snapshot.String so
// thousand-ship snapshots stay readable (and CI logs stay short); the
// exact count is printed next to the bar either way.
const snapshotBarMax = 60

// String renders the snapshot as one line per role plus totals.
func (sn *Snapshot) String() string {
	var kinds []roles.Kind
	for k := range sn.RoleCounts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "t=%.1f alive=%d excluded=%d clusters=%d entropy=%.2f overlays=%d\n",
		sn.Time, sn.Alive, sn.Excluded, sn.Clusters, sn.RoleEntropy, len(sn.Overlays))
	for _, k := range kinds {
		bar := sn.RoleCounts[k]
		if bar > snapshotBarMax {
			bar = snapshotBarMax
		}
		fmt.Fprintf(&b, "  %-16s %s (%d)\n", k, strings.Repeat("#", bar), sn.RoleCounts[k])
	}
	return b.String()
}

// FactsEverywhere seeds a fact into every alive ship's knowledge base —
// a workload helper.
func (n *Network) FactsEverywhere(id kq.FactID, weight float64) {
	now := n.Now()
	for _, s := range n.Ships {
		if s.State() == ship.Alive {
			s.KB.Observe(id, weight, now)
		}
	}
}

// DOT renders the physical graph with ship roles as labels — the
// Figure 1 drawing as Graphviz input.
func (n *Network) DOT() string {
	return n.G.DOT("wandering", func(id topo.NodeID) string {
		s := n.Ships[id]
		if s.State() != ship.Alive {
			return fmt.Sprintf("%d:dead", id)
		}
		return fmt.Sprintf("%d:%s", id, s.ModalRole())
	})
}

// Table helpers re-exported so example programs only import viator.
type Table = stats.Table

// NewTable builds an output table (re-export of stats.NewTable).
func NewTable(title string, headers ...string) *Table {
	return stats.NewTable(title, headers...)
}
