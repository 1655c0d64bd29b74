// Package routing provides the routing substrates of the reproduction:
// static shortest-path tables (the passive baseline), an AODV-style
// on-demand ad-hoc protocol with control-message accounting, and the WLI
// adaptive QoS router that realizes "routing control ... overlaying and
// managing several virtual topologies on top of the same physical
// network" — the vertical intra-node overlay class of section D.
//
// # Control-plane design
//
// All three routers are built on the topo package's reusable-memory
// shortest-path kernels (topo.SPTScratch / Graph.ComputeInto and
// topo.CostOverlay for Dijkstra, topo.BFSScratch / Graph.BFSInto for
// floods), so steady-state recomputation allocates nothing.
//
// The adaptive router is additionally incremental end to end:
//
//   - Virtual topologies are cost overlays, not graph clones. Each
//     overlay owns one pooled topo.CostOverlay — the up links in CSR
//     layout, priced by the blended metric (propagation cost +
//     congestion penalty) — recaptured in place at invalidation time.
//   - Pulse is gated: when neither topo.Graph.Version() (which moves on
//     every link add / up / down / cost change) nor the EWMA utilization
//     snapshot nor the congestion weight has changed since the last
//     invalidation, the pulse is a counter bump plus one slice compare.
//   - Invalidation is O(links), not O(n · Dijkstra): it refreshes the
//     cost snapshots and bumps a generation number. Nothing is built
//     until traffic asks.
//   - Trees are rooted at destinations. NextHop(o, at, dst) reads dst's
//     sink tree — the shortest paths from every node to dst, grown over
//     the capture's in-links (topo.CostOverlay.StartSinkInto) — which
//     holds at each settled node its next hop toward dst. A sink tree is
//     started on the first query toward dst after an invalidation and
//     settled only as far as the querying node; it keeps its Dijkstra
//     frontier, and a later query resumes from it. Every hop of a packet
//     after its first is nearer dst, so already settled: one tree per
//     destination answers every hop of every packet sent to it, where a
//     tree per forwarding node would start one per hop.
//   - Source trees stay the oracle of record. The answer must be the
//     next hop of the canonical source tree rooted at the forwarding
//     node (lowest-id predecessor among equal-cost paths), and a sink
//     tree cannot break ties the same way, nor sum costs in the same
//     order. So a sink run marks a node tied when it has a second way to
//     dst within a relative ε of its key, wide enough to cover the
//     rounding gap between the two summation orders (see
//     topo.CostOverlay.SettleUntil), and a tied query is answered by the
//     source tree rooted at the forwarding node, built the same lazy way
//     over the same capture. Random-cost radio meshes tie almost never;
//     unit-cost grids tie everywhere.
//   - Trees belong to the epoch, not the root. Invalidation moves the
//     trees built since the last one, of either kind, to a free list,
//     and a build takes a tree from there before allocating; the start
//     resets it completely. Live routing memory is thus the destinations
//     one epoch touches, not every root a long mobile run has ever
//     touched.
//   - Trees hold neither distances nor predecessors: a tree is its
//     next-hop array, 4 B a node (a sink tree's tie marks ride in it),
//     and its frontier carries the queued nodes' tentative distances and
//     predecessors. A settle's working distances live in a
//     topo.SPTScratch that is +Inf between calls, one per overlay,
//     shared by both kinds of tree.
package routing

import (
	"math"
	"slices"

	"viator/internal/stats"
	"viator/internal/topo"
)

// Static is a precomputed all-pairs shortest-path router: the classic
// passive-network data plane. Tables go stale when the topology changes
// until Recompute is called — exactly the rigidity the adaptive router
// is measured against.
type Static struct {
	g      *topo.Graph
	tables []*topo.SPT
	sc     topo.SPTScratch
	// Recomputes counts full table rebuilds.
	Recomputes int
}

// NewStatic builds and computes tables for g.
func NewStatic(g *topo.Graph) *Static {
	s := &Static{g: g}
	s.Recompute()
	return s
}

// Recompute rebuilds every source's shortest-path tree in place; after
// the first build it allocates nothing.
func (s *Static) Recompute() {
	n := s.g.N()
	for len(s.tables) < n {
		s.tables = append(s.tables, &topo.SPT{})
	}
	s.tables = s.tables[:n]
	for i := 0; i < n; i++ {
		s.g.ComputeInto(&s.sc, s.tables[i], topo.NodeID(i))
	}
	s.Recomputes++
}

// NextHop returns the next hop from src toward dst, or -1.
func (s *Static) NextHop(src, dst topo.NodeID) topo.NodeID {
	if src == dst {
		return dst
	}
	return s.tables[src].NextHop(dst)
}

// Path returns the full path src→dst, or nil.
func (s *Static) Path(src, dst topo.NodeID) []topo.NodeID {
	return s.tables[src].PathTo(dst)
}

// AODV is an on-demand ad-hoc routing protocol in the AODV style: routes
// are discovered by flooding route requests, cached, and invalidated on
// link failure. Control cost is counted per discovery — the metric the
// paper's "formal specification of a generic adaptive routing protocol
// for active ad-hoc wireless networks" targets.
type AODV struct {
	g     *topo.Graph
	cache map[[2]topo.NodeID][]topo.NodeID
	sc    topo.BFSScratch
	// onRREQ is the persistent flood callback (one closure for the
	// router's life, not one per discovery).
	onRREQ func(from, to topo.NodeID)

	// Discoveries and ControlMsgs account route-request floods.
	Discoveries uint64
	ControlMsgs uint64
	CacheHits   uint64
}

// NewAODV creates an on-demand router over g.
func NewAODV(g *topo.Graph) *AODV {
	a := &AODV{g: g, cache: make(map[[2]topo.NodeID][]topo.NodeID)}
	a.onRREQ = func(from, to topo.NodeID) { a.ControlMsgs++ }
	return a
}

// Route returns a path src→dst, using the cache when the cached path is
// still valid, otherwise flooding a discovery. nil means unreachable.
// Discovery runs on the scratch-based BFS kernel; the only allocation is
// the returned path, which the cache retains.
func (a *AODV) Route(src, dst topo.NodeID) []topo.NodeID {
	key := [2]topo.NodeID{src, dst}
	if p, ok := a.cache[key]; ok && a.valid(p) {
		a.CacheHits++
		return p
	}
	// Discovery: BFS flood. Every node forwards the RREQ once to each
	// neighbor; the reply unicasts back along the discovered path.
	a.Discoveries++
	if !a.g.BFSInto(&a.sc, src, dst, a.onRREQ) {
		return nil
	}
	hops := 1
	for v := dst; v != src; v = a.sc.Prev(v) {
		hops++
	}
	path := make([]topo.NodeID, hops)
	for v, i := dst, hops-1; ; v, i = a.sc.Prev(v), i-1 {
		path[i] = v
		if v == src {
			break
		}
	}
	a.ControlMsgs += uint64(len(path) - 1) // RREP back along the path
	a.cache[key] = path
	return path
}

// valid checks that every hop of a cached path is still an up link.
func (a *AODV) valid(path []topo.NodeID) bool {
	for i := 0; i+1 < len(path); i++ {
		if a.g.FindLink(path[i], path[i+1]) == -1 {
			return false
		}
	}
	return len(path) > 0
}

// DefaultOverlay is the name of the adaptive router's built-in overlay.
// It is the fallback for every unknown overlay name and cannot be torn
// down.
const DefaultOverlay = ""

// overlay is one virtual topology: a congestion bias, a frozen
// effective-cost capture of the graph, and the epoch's routing trees,
// built lazily: a sink tree per destination, and a source tree per
// forwarding node whose sink answer was tied.
type overlay struct {
	bias float64
	// ov is the pooled topo.CostOverlay holding the up links and their
	// blended metrics as of the last invalidation. Recaptured in place —
	// spawning or re-pulsing an overlay never clones the graph.
	ov topo.CostOverlay
	// costOf prices one link for this overlay; one persistent closure
	// for the overlay's life, handed to Graph.CaptureInto.
	costOf func(li int) float64
	// sc holds the working distances of every settle over this overlay's
	// trees, of both kinds; trees are built only on the router's
	// goroutine, in turn.
	sc topo.SPTScratch
	// gen marks the current epoch. sinks holds the sink trees by
	// destination, sources the source trees by root.
	gen     uint64
	sinks   trees
	sources trees
	// free holds the trees of past epochs, of either kind, for the next
	// builds to reuse.
	free []*topo.SPT
}

// trees is one kind of tree of an overlay, by root. Trees belong to the
// epoch, not the root: byRoot[r] is valid iff stamp[r] is the overlay's
// gen, built lists the roots whose trees were started this epoch, and
// invalidation moves exactly those trees to the free list and clears
// their slots, so a root untouched in the new epoch holds no memory.
type trees struct {
	stamp  []uint64
	byRoot []*topo.SPT
	built  []topo.NodeID
}

// grow extends the table to n roots.
func (ts *trees) grow(n int) {
	for len(ts.byRoot) < n {
		ts.byRoot = append(ts.byRoot, nil)
		ts.stamp = append(ts.stamp, 0)
	}
}

// retire moves the epoch's trees to free and returns it.
func (ts *trees) retire(free []*topo.SPT) []*topo.SPT {
	for _, r := range ts.built {
		free = append(free, ts.byRoot[r])
		ts.byRoot[r] = nil
	}
	ts.built = ts.built[:0]
	return free
}

// tree returns the epoch's tree rooted at root and whether it is new
// this epoch: a recycled one from free when there is one, else a fresh
// one. The caller starts a new tree; StartInto and StartSinkInto reset
// whatever run it held, so a recycled tree builds exactly what a fresh
// one would.
func (o *overlay) tree(ts *trees, root topo.NodeID) (*topo.SPT, bool) {
	if ts.stamp[root] == o.gen {
		return ts.byRoot[root], false
	}
	var t *topo.SPT
	if k := len(o.free) - 1; k >= 0 {
		t = o.free[k]
		o.free[k] = nil
		o.free = o.free[:k]
	} else {
		t = &topo.SPT{}
	}
	ts.byRoot[root] = t
	ts.stamp[root] = o.gen
	ts.built = append(ts.built, root)
	return t, true
}

// Adaptive is the WLI QoS router: link costs blend propagation cost with
// a congestion estimate fed by per-link utilization feedback, and
// per-class overlays reweight the blend — topology-on-demand. Pulse
// refreshes the overlays from current feedback; see the package comment
// for how pulses are gated, invalidation stays O(links), and trees
// build lazily per destination.
type Adaptive struct {
	g *topo.Graph
	// CongestionWeight scales how strongly utilization inflates cost.
	CongestionWeight float64

	util     []stats.EWMA
	overlays map[string]*overlay
	order    []string

	// Pulse gate: the input fingerprint the current cost snapshots were
	// taken from. A pulse recomputes only when it no longer matches.
	gateValid   bool
	gateVersion uint64
	gateWeight  float64
	gateUtil    []float64

	// Pulses counts Pulse calls; Recomputes counts pulses that found
	// changed inputs and invalidated the trees; SkippedPulses counts
	// gated no-ops. SinkBuilds and SourceBuilds count the trees NextHop
	// started, over all overlays, and TieFallbacks the NextHop queries
	// a source tree answered because the sink answer was tied.
	Pulses        int
	Recomputes    int
	SkippedPulses int
	SinkBuilds    uint64
	SourceBuilds  uint64
	TieFallbacks  uint64
}

// NewAdaptive creates the adaptive router with a default overlay "" of
// bias 1.
func NewAdaptive(g *topo.Graph, congestionWeight float64) *Adaptive {
	a := &Adaptive{
		g: g, CongestionWeight: congestionWeight,
		overlays: make(map[string]*overlay),
	}
	a.SpawnOverlay(DefaultOverlay, 1)
	return a
}

// ObserveUtilization feeds one link's current utilization in [0,1].
// The first observation past the table grows it to the graph's link
// count in one step, not one append per link.
func (a *Adaptive) ObserveUtilization(li int, u float64) {
	if li >= len(a.util) {
		a.util = slices.Grow(a.util, max(li+1, a.g.Links())-len(a.util))
		for len(a.util) <= li {
			a.util = append(a.util, stats.EWMA{Alpha: 0.3})
		}
	}
	a.util[li].Update(u)
}

// effectiveCost is the blended link metric for an overlay bias.
func (a *Adaptive) effectiveCost(li int, bias float64) float64 {
	l := a.g.Link(li)
	congestion := 0.0
	if li < len(a.util) {
		congestion = a.util[li].Value()
	}
	// Congestion term grows super-linearly near saturation so loaded
	// links are avoided before they drop.
	penalty := a.CongestionWeight * bias * congestion / math.Max(0.05, 1-congestion)
	return l.Cost + penalty
}

// SpawnOverlay creates (or reweights) a virtual overlay network with the
// given congestion bias: bias > 1 is a latency-sensitive class that flees
// congestion aggressively, bias 0 ignores congestion (bulk class).
// Spawning captures the overlay's cost snapshot but computes no trees —
// they are built per destination on first use.
func (a *Adaptive) SpawnOverlay(name string, bias float64) {
	o, exists := a.overlays[name]
	if !exists {
		o = &overlay{}
		o.costOf = func(li int) float64 { return a.effectiveCost(li, o.bias) }
		a.overlays[name] = o
		a.order = append(a.order, name)
	}
	o.bias = bias
	a.invalidate(o)
}

// Overlays returns overlay names in creation order.
func (a *Adaptive) Overlays() []string {
	out := make([]string, len(a.order))
	copy(out, a.order)
	return out
}

// invalidate recaptures o's effective-cost overlay from the live graph
// and feedback state and moves the epoch's trees to the free list, which
// invalidates every tree. O(links).
func (a *Adaptive) invalidate(o *overlay) {
	a.g.CaptureInto(&o.ov, o.costOf)
	n := o.ov.N()
	o.sinks.grow(n)
	o.sources.grow(n)
	o.free = o.sinks.retire(o.free)
	o.free = o.sources.retire(o.free)
	o.gen++
}

// sinkHop answers a query from the overlay's sink tree toward dst,
// starting it from the frozen cost snapshot if dst has none this epoch
// and settling it as far as at. A tree settles only as far as the
// sources queried so far this epoch; a later query resumes from the
// frontier the tree kept, and the hops of a packet after its first are
// nearer dst, so already settled.
func (a *Adaptive) sinkHop(o *overlay, at, dst topo.NodeID) (topo.NodeID, bool) {
	t, fresh := o.tree(&o.sinks, dst)
	if fresh {
		o.ov.StartSinkInto(t, dst)
		a.SinkBuilds++
	}
	if !t.Settled(at) {
		o.ov.SettleUntil(&o.sc, t, at)
	}
	return t.SinkHop(at)
}

// sourceHop answers a query from the overlay's source tree rooted at
// at, started and settled as the sink tree is, over the same capture.
func (a *Adaptive) sourceHop(o *overlay, at, dst topo.NodeID) topo.NodeID {
	t, fresh := o.tree(&o.sources, at)
	if fresh {
		o.ov.StartInto(t, at)
		a.SourceBuilds++
	}
	if !t.Settled(dst) {
		o.ov.SettleUntil(&o.sc, t, dst)
	}
	return t.NextHop(dst)
}

// lookup resolves an overlay name, falling back to the default overlay —
// which always exists: NewAdaptive creates it and TeardownOverlay
// refuses to remove it.
func (a *Adaptive) lookup(name string) *overlay {
	if o, ok := a.overlays[name]; ok {
		return o
	}
	return a.overlays[DefaultOverlay]
}

// inputsChanged reports whether any routing input moved since the gate
// fingerprint was taken: topology (version covers link add/up/down/cost),
// the congestion weight, or any link's EWMA utilization estimate.
func (a *Adaptive) inputsChanged() bool {
	if !a.gateValid ||
		a.gateVersion != a.g.Version() ||
		a.gateWeight != a.CongestionWeight ||
		len(a.gateUtil) != len(a.util) {
		return true
	}
	for i := range a.util {
		if a.util[i].Value() != a.gateUtil[i] {
			return true
		}
	}
	return false
}

// rememberInputs stores the gate fingerprint matching the cost snapshots
// just captured.
func (a *Adaptive) rememberInputs() {
	a.gateValid = true
	a.gateVersion = a.g.Version()
	a.gateWeight = a.CongestionWeight
	if cap(a.gateUtil) < len(a.util) {
		a.gateUtil = make([]float64, len(a.util))
	}
	a.gateUtil = a.gateUtil[:len(a.util)]
	for i := range a.util {
		a.gateUtil[i] = a.util[i].Value()
	}
}

// Pulse refreshes every overlay from current feedback — the periodic
// adaptation step of the vertical wandering scheme. It is incremental
// twice over: when no routing input changed since the last pulse it does
// nothing at all, and when inputs did change it only recaptures the
// per-overlay cost snapshots and invalidates — each destination's tree
// is then rebuilt lazily on its next use.
func (a *Adaptive) Pulse() {
	a.Pulses++
	if !a.inputsChanged() {
		a.SkippedPulses++
		return
	}
	for _, name := range a.order {
		a.invalidate(a.overlays[name])
	}
	a.rememberInputs()
	a.Recomputes++
}

// NextHop routes within an overlay; unknown overlays fall back to the
// default overlay. It returns the next hop from at toward dst, or -1
// when dst is unreachable. The hop is the one the canonical source tree
// rooted at at takes (topo.CostOverlay.SettleUntil); it is read off
// dst's sink tree, built on the first query toward dst after an
// invalidation, unless the sink tree marks at tied, in which case at's
// source tree answers.
//
//viator:noalloc
func (a *Adaptive) NextHop(overlay string, at, dst topo.NodeID) topo.NodeID {
	if at == dst {
		return dst
	}
	o := a.lookup(overlay)
	if n := o.ov.N(); int(dst) >= n || int(at) >= n {
		return -1 // node added after the capture: no route until a pulse
	}
	hop, tied := a.sinkHop(o, at, dst)
	if !tied {
		return hop
	}
	a.TieFallbacks++
	return a.sourceHop(o, at, dst)
}
