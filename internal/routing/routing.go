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
//     cost snapshots and bumps a generation number. Each source's tree is
//     restarted lazily on its first NextHop after that and settled
//     only as far as the queried destination; the tree keeps its
//     Dijkstra frontier, and a later query in the same epoch resumes
//     from it (topo.CostOverlay.StartInto / SettleUntil). Sparse and
//     district-local traffic never pays the all-pairs cost, nor often a
//     whole tree, and every settled entry equals a one-shot build's.
//   - Trees belong to the epoch, not the source. Invalidation moves the
//     trees built since the last one to a free list, and a build takes a
//     tree from there before allocating; StartInto resets it completely.
//     Live routing memory is thus the sources one epoch touches, not
//     every source a long mobile run has ever touched.
//   - Trees hold neither distances nor predecessors: a tree is its
//     next-hop array, 4 B a node, and its frontier carries the queued
//     nodes' tentative distances and canonical predecessors. A settle's
//     working distances live in a topo.SPTScratch that is +Inf between
//     calls, one per overlay.
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

// Cost returns the path cost src→dst (+Inf when unreachable).
func (s *Static) Cost(src, dst topo.NodeID) float64 {
	return s.tables[src].Dist[dst]
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
// effective-cost capture of the graph, and lazily built per-source
// routing tables.
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
	// trees; trees are built only on the router's goroutine, in turn.
	sc topo.SPTScratch
	// gen/stamp mark the current epoch: tables[i] is valid iff
	// stamp[i] == gen. Trees belong to the epoch, not the source: built
	// lists the sources whose trees were started this epoch, and
	// invalidation moves exactly those trees to free and clears their
	// slots, so a source untouched in the new epoch holds no memory and
	// the next build of any source takes a tree from free first.
	gen    uint64
	stamp  []uint64
	tables []*topo.SPT
	built  []topo.NodeID
	free   []*topo.SPT
}

// take returns a tree for a new build: a recycled one from free when
// there is one, else a fresh one. StartInto resets whatever run the tree
// held, so a recycled tree builds exactly what a fresh one would.
func (o *overlay) take() *topo.SPT {
	k := len(o.free) - 1
	if k < 0 {
		return &topo.SPT{}
	}
	t := o.free[k]
	o.free[k] = nil
	o.free = o.free[:k]
	return t
}

// Adaptive is the WLI QoS router: link costs blend propagation cost with
// a congestion estimate fed by per-link utilization feedback, and
// per-class overlays reweight the blend — topology-on-demand. Pulse
// refreshes the overlays from current feedback; see the package comment
// for how pulses are gated, invalidation stays O(links), and tables
// build lazily per source.
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
	// changed inputs and invalidated the tables; SkippedPulses counts
	// gated no-ops; LazyBuilds counts single-source table builds done on
	// demand by NextHop.
	Pulses        int
	Recomputes    int
	SkippedPulses int
	LazyBuilds    uint64
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
// Spawning captures the overlay's cost snapshot but computes no tables —
// they are built per source on first use.
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

// TeardownOverlay removes a virtual overlay. The default "" overlay is
// the fallback for every unknown overlay name and cannot be torn down —
// removing it is a no-op. (It used to be removable, which left NextHop
// indexing a nil fallback table and panicking on the next unknown-overlay
// route.)
func (a *Adaptive) TeardownOverlay(name string) {
	if name == DefaultOverlay {
		return
	}
	delete(a.overlays, name)
	for i, o := range a.order {
		if o == name {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
}

// Overlays returns overlay names in creation order.
func (a *Adaptive) Overlays() []string {
	out := make([]string, len(a.order))
	copy(out, a.order)
	return out
}

// invalidate recaptures o's effective-cost overlay from the live graph
// and feedback state, moves the epoch's trees to the free list and
// invalidates every source's table. O(links).
func (a *Adaptive) invalidate(o *overlay) {
	a.g.CaptureInto(&o.ov, o.costOf)
	n := o.ov.N()
	for len(o.tables) < n {
		o.tables = append(o.tables, nil)
		o.stamp = append(o.stamp, 0)
	}
	for _, src := range o.built {
		o.free = append(o.free, o.tables[src])
		o.tables[src] = nil
	}
	o.built = o.built[:0]
	o.gen++
}

// spt returns the overlay's table for src with dst settled, starting the
// tree from the frozen cost snapshot if src has none this epoch. A tree
// settles only as far as the destinations queried so far this epoch; a
// later query resumes from the frontier the tree kept. Trees come from
// the free list, so steady-state builds allocate nothing.
func (a *Adaptive) spt(o *overlay, src, dst topo.NodeID) *topo.SPT {
	if int(src) >= len(o.tables) {
		return nil // node added after the snapshot; no route yet
	}
	t := o.tables[src]
	if o.stamp[src] != o.gen {
		t = o.take()
		o.tables[src] = t
		o.built = append(o.built, src)
		o.ov.StartInto(t, src)
		o.stamp[src] = o.gen
		a.LazyBuilds++
	}
	if !t.Settled(dst) {
		o.ov.SettleUntil(&o.sc, t, dst)
	}
	return t
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
// per-overlay cost snapshots and invalidates — each source's tree is then
// rebuilt lazily on its next use.
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
// default overlay. It returns -1 when dst is unreachable. The overlay's
// table for src is built on first use after an invalidation, so callers
// touching few sources never pay the all-pairs cost.
//
//viator:noalloc
func (a *Adaptive) NextHop(overlay string, src, dst topo.NodeID) topo.NodeID {
	if src == dst {
		return dst
	}
	o := a.lookup(overlay)
	if int(dst) >= o.ov.N() {
		return -1 // node added after the capture: no route until a pulse
	}
	t := a.spt(o, src, dst)
	if t == nil {
		return -1
	}
	return t.NextHop(dst)
}
