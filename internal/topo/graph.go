// Package topo provides the network topology substrate: weighted graphs
// with dynamic link state, shortest-path routing, connectivity analysis,
// standard generators (ring, grid, random geometric, Waxman) and DOT/ASCII
// export for the figure-reproduction harness.
package topo

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// NodeID identifies a node within one Graph.
type NodeID int

// Link is a directed edge with a routing cost. Graphs store both directions
// explicitly so asymmetric links (common in ad-hoc radio) are expressible.
type Link struct {
	From, To NodeID
	Cost     float64
	Up       bool
}

// Graph is a mutable directed graph with stable node identifiers.
// It is not safe for concurrent mutation.
type Graph struct {
	n       int
	adj     [][]int // per-node indexes into links, ascending: Connect appends to both
	link    []Link
	pos     []Point // optional geometry, used by geometric generators
	version uint64  // bumped on every topology change: node/link add, up/down, cost
}

// Point is a 2-D coordinate used by geometric topologies and mobility.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node and returns its identifier. Like link changes,
// growing the node set bumps Version — the routing pulse gate relies on
// Version being a complete topology fingerprint.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	g.pos = append(g.pos, Point{})
	g.n++
	g.version++
	return NodeID(g.n - 1)
}

// AddNodes appends k nodes and returns the first new identifier.
func (g *Graph) AddNodes(k int) NodeID {
	first := NodeID(g.n)
	for i := 0; i < k; i++ {
		g.AddNode()
	}
	return first
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// SetPos assigns a geometric position to a node.
func (g *Graph) SetPos(id NodeID, p Point) { g.pos[id] = p }

// Pos returns a node's geometric position.
func (g *Graph) Pos(id NodeID) Point { return g.pos[id] }

// Connect adds a directed link and returns its index. Duplicate links are
// allowed and treated as parallel edges.
func (g *Graph) Connect(from, to NodeID, cost float64) int {
	if from == to {
		panic("topo: self-loop")
	}
	g.link = append(g.link, Link{From: from, To: to, Cost: cost, Up: true})
	idx := len(g.link) - 1
	g.adj[from] = append(g.adj[from], idx)
	g.version++
	return idx
}

// Version returns a counter that increases whenever the topology
// changes: a node or link is added, a link is brought up or down, or a
// link's cost moves.
// Per-link caches (netsim's state table) and the routing control plane's
// pulse gate compare it against a remembered value to decide whether to
// resynchronize or recompute, instead of re-scanning on every packet or
// re-running all-pairs Dijkstra on every pulse.
func (g *Graph) Version() uint64 { return g.version }

// ConnectBoth adds links in both directions with equal cost and returns
// the two link indexes.
func (g *Graph) ConnectBoth(a, b NodeID, cost float64) (int, int) {
	return g.Connect(a, b, cost), g.Connect(b, a, cost)
}

// Links returns the number of links (directed).
func (g *Graph) Links() int { return len(g.link) }

// Link returns a copy of link i.
func (g *Graph) Link(i int) Link { return g.link[i] }

// SetUp marks link i up or down. Down links are invisible to routing.
// An actual state change bumps Version.
func (g *Graph) SetUp(i int, up bool) {
	if g.link[i].Up != up {
		g.link[i].Up = up
		g.version++
	}
}

// SetCost updates link i's routing cost. An actual change bumps Version.
func (g *Graph) SetCost(i int, c float64) {
	if g.link[i].Cost != c {
		g.link[i].Cost = c
		g.version++
	}
}

// Neighbors returns the IDs reachable from id over up links, in link
// insertion order (deterministic).
func (g *Graph) Neighbors(id NodeID) []NodeID {
	var out []NodeID
	for _, li := range g.adj[id] {
		if g.link[li].Up {
			out = append(out, g.link[li].To)
		}
	}
	return out
}

// FindLink returns the index of the first up link from→to, or -1.
func (g *Graph) FindLink(from, to NodeID) int {
	for _, li := range g.adj[from] {
		if g.link[li].Up && g.link[li].To == to {
			return li
		}
	}
	return -1
}

// LinkBetween returns the index of the first link from→to in insertion
// order — up or down — or -1 when the nodes were never connected. It
// scans from's out-links, so it is linear in out-degree; the incremental
// connectivity refresh remembers every pair's link indexes and only asks
// when a pair comes into range.
func (g *Graph) LinkBetween(from, to NodeID) int {
	for _, li := range g.adj[from] {
		if g.link[li].To == to {
			return li
		}
	}
	return -1
}

// Degree returns the number of up out-links at id.
func (g *Graph) Degree(id NodeID) int {
	d := 0
	for _, li := range g.adj[id] {
		if g.link[li].Up {
			d++
		}
	}
	return d
}

// spItem is a priority-queue element of the static Dijkstra kernel
// (Graph.computeInto): a (node, tentative distance) pair. The queue uses
// lazy deletion — a node may be pushed several times and every pop after
// its first (cheapest) one is ignored.
type spItem struct {
	node NodeID
	dist float64
}

// spPush and spPop are the static kernel's binary min-heap on a plain
// slice, with exactly the sift semantics of container/heap (strict less;
// the right child is preferred only when strictly smaller). That kernel
// breaks equal-cost ties by relaxation order, so its trees — E1's
// grid table among them — depend on this pop order, which is identical
// to the boxed container/heap implementation this replaced, while
// pushing a value costs zero allocations instead of one interface
// boxing each. Both sift with a hole instead of pairwise swaps: the
// moving element is held in a register and each path position receives
// its child (push: parent) directly. The comparison sequence — and
// therefore the final array — is the same as swap-based sifting, at
// half the memory writes. Overlay trees are canonical and use the
// decrease-key frontier below instead.
func spPush(h []spItem, it spItem) []spItem {
	h = append(h, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.dist < h[i].dist) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	return h
}

func spPop(h []spItem) ([]spItem, spItem) {
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h[r].dist < h[l].dist {
			j = r
		}
		if !(h[j].dist < x.dist) {
			break
		}
		h[i] = h[j]
		i = j
	}
	if n > 0 {
		h[i] = x
	}
	return h, top
}

// frontierItem is one entry of an overlay run's frontier: a queued node,
// its tentative distance and the canonical predecessor that distance
// runs through (-1 for the root) — in a sink run the successor, with
// tiedBit when a second one came close. Overlay trees store neither
// distances nor predecessors of their own, so both live here and travel
// with the tree from one SettleUntil call to the next. prev takes what
// would be padding after node, so an entry stays 16 B.
type frontierItem struct {
	dist       float64
	node, prev int32
}

// frontierUp and frontierPop are the overlay kernel's indexed binary
// min-heap: h holds frontier entries keyed by dist, compared in place,
// and each in-heap node's position i is mirrored in next as -2-i, so a
// cheaper path to a queued node lowers its entry's key and moves it up
// in place (decrease-key) instead of queueing a stale duplicate. Every
// pop therefore settles a node, and the heap never holds more than n
// entries. Equal keys pop in no particular order; overlay trees break
// ties canonically, so nothing depends on it.
//
// frontierUp sifts the entry at position j toward the root; a push is
// an append followed by frontierUp.
//
//viator:noalloc
func frontierUp(h []frontierItem, next []int32, j int) {
	x := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !(x.dist < p.dist) {
			break
		}
		h[j] = p
		next[p.node] = int32(-2 - j)
		j = i
	}
	h[j] = x
	next[x.node] = int32(-2 - j)
}

// frontierPop removes the root, h[0], and returns the shrunk heap. The
// caller reads the root first and owns its next entry from here on.
//
//viator:noalloc
func frontierPop(h []frontierItem, next []int32) []frontierItem {
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	if n == 0 {
		return h
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if l+1 < n {
			j += b2i(h[l+1].dist < h[l].dist)
		}
		c := h[j]
		if !(c.dist < x.dist) {
			break
		}
		h[i] = c
		next[c.node] = int32(-2 - i)
		i = j
	}
	h[i] = x
	next[x.node] = int32(-2 - i)
	return h
}

// b2i is 1 for true and 0 for false. The compiler sets it from the
// flags without a branch, which is how frontierPop picks the smaller
// child: that comparison goes either way about half the time, so a
// branch on it would be mispredicted as often.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SPT holds a shortest-path tree of one of two kinds:
//
//   - a source tree (ComputeInto, CostOverlay.StartInto): the
//     shortest paths from Source to every node, and at each settled node
//     v the first hop of the path Source→v (NextHop);
//   - a sink tree (CostOverlay.StartSinkInto): the shortest paths from
//     every node to Source, its root, grown over reversed links, and at
//     each settled node v the next hop of the path v→Source (SinkHop). A
//     router forwarding toward one destination reads every hop of every
//     packet off that destination's one sink tree.
//
// An overlay tree (either kind, built by a CostOverlay) may be partial:
// only its settled nodes (Settled) carry final entries, and the pending
// heap of the run — its frontier — stays with the tree so the next
// SettleUntil resumes the run where the last one stopped.
//
// Overlay trees carry neither distances nor predecessors: a tree is one
// int32 next-hop array, 4 B a node, because routers hold many trees and
// forwarding needs only the next hop. A queued node's tentative distance
// and predecessor live in its frontier entry, and a run's working
// distances in the caller's SPTScratch.
type SPT struct {
	Source NodeID
	// Dist is each node's distance, +Inf when unreachable. Only trees
	// built by ComputeInto fill it; it is empty in overlay trees.
	Dist []float64
	// Prev is each node's predecessor; -1 at the source and unreachable
	// nodes. Like next it is int32, half a NodeID table. Like Dist, only
	// static trees fill it; it is empty in overlay trees.
	Prev []int32
	// next holds each settled node's hop, so next[v] >= 0 marks v
	// settled: in a source tree the first hop toward v, in a sink tree
	// v's next hop toward the root, with tiedBit set when v is tied
	// (SinkHop). It is -1 at the tree's Source and at nodes not (yet)
	// reached, and -2-i at a node waiting at position i of an overlay
	// run's frontier.
	next []int32
	// frontier is the pending heap of a partial overlay run, each queued
	// node with its tentative distance and predecessor (in a sink run:
	// its successor, with tiedBit); empty once the run is complete.
	frontier []frontierItem
	// sink marks a sink tree, whose runs relax the capture's links
	// backwards.
	sink bool
}

// SPTScratch is the reusable working memory of a shortest-path
// computation: the static kernel's priority queue, and the working
// distances of one overlay SettleUntil call. One scratch serves any
// number of sequential calls over graphs and captures of any size; it is
// not safe for concurrent use — parallel callers hold one scratch each.
type SPTScratch struct {
	heap []spItem
	// dist is dense over the capture's nodes and +Inf at rest. A
	// SettleUntil call loads its tree's frontier keys into it, keeps the
	// distance of every node it queues or settles there while it runs,
	// and on return resets exactly the entries it set: the frontier it
	// leaves behind, and the rest, listed in touched.
	dist    []float64
	touched []int32
}

// resize returns s with length n, reusing its backing array when large
// enough. Contents are unspecified — callers reinitialize.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// regrow is resize with append's amortized growth: a capture whose link
// count creeps up from one pulse to the next reallocates rarely, not on
// every pulse. Like resize it copies nothing over.
func regrow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:0], make([]T, n)...)
	}
	return s[:n]
}

// ComputeInto computes shortest paths from src over up links using Cost
// as the metric (Dijkstra); negative costs panic. The tree is built into
// t reusing its slices, and sc's buffers hold the working state. Once
// both have grown to the graph size, repeated computations are
// allocation-free. Either may be nil, in which case it is allocated.
// It returns t for convenience.
//
//viator:noalloc
func (g *Graph) ComputeInto(sc *SPTScratch, t *SPT, src NodeID) *SPT {
	return g.computeInto(sc, t, src)
}

// CostOverlay is a frozen, routing-ready view of a graph: the up links
// at one instant with blended per-link costs, laid out as compressed
// adjacencies (CSR). Capturing one is O(links) and reuses the overlay's
// backing arrays; computing shortest paths from it never touches the
// live graph, so a control plane can capture at pulse time and build
// trees lazily later (StartInto, StartSinkInto, SettleUntil), with
// results identical to building them at capture time. The flat layout
// also makes the relaxation loop sequential array reads per edge instead
// of dependent random loads (adjacency slice → link record → cost
// table), which is where a tree build spends its time.
//
// The capture holds the links grouped by head, each node's in-links:
// the adjacency a sink run relaxes. It also records where each in-link
// falls among its tail's out-links in CaptureInto's order (the tail's
// adjacency order), so the out-link CSR a source run relaxes is built
// from the in-links on the capture's first StartInto, with the same
// costs and the same edge order a direct capture would have. A capture
// that only sink trees use never builds it.
type CostOverlay struct {
	n int
	// inStart[v] .. inStart[v+1] is the range of v's in-links in in.
	inStart []int32
	in      []inLink
	// start[u] .. start[u+1] is the range of u's out-links in to and
	// cost. CaptureInto fills start; to and cost are filled on demand
	// (forward), and fwd says they are current.
	start []int32
	to    []int32
	cost  []float64
	fwd   bool
	// eps is the capture's relative tie gap (tieEps). lowOut says some
	// link is cheap enough to mark a tie at settle time (CaptureInto),
	// and minOut then holds each node's cheapest out-link (+Inf when it
	// has none).
	eps    float64
	lowOut bool
	minOut []float64
}

// inLink is one captured in-link: its cost, its tail, and its rank among
// the tail's out-links, which places it in the out-link CSR. The three
// share one 16 B entry, so placing a link writes one cache line and a
// sink run reads cost and tail from one.
type inLink struct {
	cost       float64
	from, rank int32
}

// tiedBit marks, in a sink tree's settled entry and in a sink run's
// frontier entry, a node with a tied way to the root (SinkHop). Node ids
// stay below it (CaptureInto checks), so an entry is its successor with
// at most this one bit set, and still non-negative.
const tiedBit = 1 << 30

// tieEps is the relative gap within which a sink run over an n-node
// capture counts a node's second way to the root as a tie.
//
// A source run sums a path's costs from its root outward,
// fl(..fl(fl(c1+c2)+c3)..+ck), and a sink run from its root inward,
// fl(c1+fl(c2+..+fl(c(k-1)+ck)..)). Summing k non-negative costs in
// either order errs by at most γk = k·u/(1-k·u) of the exact sum, with
// u = 2⁻⁵³, and a tree path has fewer than n links, so the two runs
// together err by at most 2·γn. Let the source tree rooted at a take a
// first hop w toward r other than a's sink successor. Its path is
// shortest in the source run's rounding and the sink path in the sink
// run's, so their exact lengths differ by at most 2·γn of a's key, and
// the sink run, relaxing a's link to w, prices that way within about
// 4·γn of a's key. ε = 8·n·u covers that with room to spare. A wider ε
// costs tie fallbacks, never a wrong hop.
//
// Only a's own tie matters: a source tree's next hop is its path's first
// link, so paths that share it and part later answer the same.
func tieEps(n int) float64 { return 8 * float64(n) * 0x1p-53 }

// N returns the node count at capture time.
func (o *CostOverlay) N() int { return o.n }

// CaptureInto (re)builds o from g's current up links, pricing link li at
// costOf(li). Negative costs panic here, at capture time — the same
// pulse-step timing at which the pre-overlay design ran Dijkstra and
// panicked. Down links are excluded entirely.
//
// It walks the link table twice in index order: once to count each
// node's up in-links, once to price each up link and place it in its
// head's in-link range. Connect appends a link to its tail's adjacency
// as it appends it to the table, so a tail's links come in adjacency
// order here, and counting them off ranks each among the tail's
// out-links.
//
//viator:noalloc
func (g *Graph) CaptureInto(o *CostOverlay, costOf func(li int) float64) {
	n := g.n
	if n >= tiedBit {
		panic("topo: capture too large for sink-tree entries") //viator:alloc-ok panic path: 2^30 nodes is far beyond any scenario
	}
	o.n = n
	o.fwd = false
	o.inStart = resize(o.inStart, n+1) //viator:alloc-ok amortized capacity growth; steady-state capture reuses the overlay and allocates nothing
	o.start = resize(o.start, n+1)     //viator:alloc-ok amortized capacity growth; steady-state capture reuses the overlay and allocates nothing
	at, start, links := o.inStart, o.start, g.link
	clear(at)
	clear(start)
	for i := range links {
		if l := &links[i]; l.Up {
			at[l.To+1]++
		}
	}
	for v := 0; v < n; v++ {
		at[v+1] += at[v]
	}
	o.in = regrow(o.in, int(at[n])) //viator:alloc-ok amortized capacity growth; steady-state capture reuses the overlay and allocates nothing
	in := o.in
	// fill[v] is the next free position of v's in-link range; it walks
	// at[v] up to at[v+1], so at is rebuilt by shifting afterwards.
	// start[u+1] counts u's up out-links as they come, which ranks them,
	// and becomes the out-link CSR's offsets by a prefix sum.
	fill := at[:n]
	cmin, cmax := math.Inf(1), 0.0
	for li := range links {
		l := &links[li]
		if !l.Up {
			continue
		}
		c := costOf(li)
		if c < 0 {
			panic("topo: negative link cost") //viator:alloc-ok panic path: negative cost is a model bug, never taken in a valid run
		}
		in[fill[l.To]] = inLink{c, int32(l.From), start[l.From+1]}
		fill[l.To]++
		start[l.From+1]++
		cmin, cmax = min(cmin, c), max(cmax, c)
	}
	copy(at[1:], at[:n])
	at[0] = 0
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	o.eps = tieEps(n)
	// A settle marks node x tied when x has an out-link no dearer than
	// 2·ε of its key, and no key reaches n·cmax (a path has fewer than n
	// links), so the cheapest links are kept per node only when the
	// cheapest link of all is that cheap: with zero-cost links, say.
	o.lowOut = cmin <= 2*o.eps*float64(n)*cmax
	if o.lowOut {
		o.minOut = resize(o.minOut, n) //viator:alloc-ok amortized capacity growth; steady-state capture reuses the overlay and allocates nothing
		for v := range o.minOut {
			o.minOut[v] = math.Inf(1)
		}
		for _, l := range in {
			o.minOut[l.from] = min(o.minOut[l.from], l.cost)
		}
	}
}

// forward fills the out-link CSR from the in-links, once per capture:
// each in-link lands at its rank in its tail's range, so every node's
// out-links come in CaptureInto's order.
//
//viator:noalloc
func (o *CostOverlay) forward() {
	if o.fwd {
		return
	}
	m := len(o.in)
	o.to = regrow(o.to, m)     //viator:alloc-ok amortized capacity growth on a capture's first source run; steady state reuses it
	o.cost = regrow(o.cost, m) //viator:alloc-ok amortized capacity growth on a capture's first source run; steady state reuses it
	to, cost, in, at, start := o.to, o.cost, o.in, o.inStart, o.start
	for v := 0; v < o.n; v++ {
		for _, l := range in[at[v]:at[v+1]] {
			e := start[l.from] + l.rank
			to[e], cost[e] = int32(v), l.cost
		}
	}
	o.fwd = true
}

// StartInto resets t to the start of a source run from src over the
// capture: every node but src unsettled, and the frontier holding src
// alone at distance 0. It always discards t's previous frontier, whatever
// run, kind or epoch that came from, and leaves Dist and Prev empty:
// overlay trees hold only the next hops. Nothing is settled yet beyond
// the source, whose entries are final from here; SettleUntil does the
// work. The capture's first StartInto builds its out-link CSR.
//
//viator:noalloc
func (o *CostOverlay) StartInto(t *SPT, src NodeID) {
	o.forward()
	o.begin(t, src, false)
}

// StartSinkInto resets t to the start of a sink run toward dst over the
// capture, as StartInto does for a source run: dst is the root, and
// SettleUntil grows the tree over the in-links.
//
//viator:noalloc
func (o *CostOverlay) StartSinkInto(t *SPT, dst NodeID) {
	o.begin(t, dst, true)
}

// begin resets t to a run of the given kind rooted at root.
//
//viator:noalloc
func (o *CostOverlay) begin(t *SPT, root NodeID, sink bool) {
	n := o.n
	t.Source = root
	t.sink = sink
	t.Dist = t.Dist[:0]
	t.Prev = t.Prev[:0]
	t.next = resize(t.next, n) //viator:alloc-ok amortized capacity growth when n grows; steady state untouched
	for i := range t.next {
		t.next[i] = -1
	}
	t.next[root] = -2 // position 0
	t.frontier = append(t.frontier[:0], frontierItem{0, int32(root), -1})
}

// SettleUntil resumes t's run from its frontier and stops right after
// settling v and relaxing v's links, or when the frontier empties; v = -1
// runs to completion, and a v already settled returns at once. In a
// source tree v is the destination the caller routes toward; in a sink
// tree it is the node the caller routes from. t must have been started
// by StartInto or StartSinkInto on this same capture. The run's working
// distances live in sc for the length of the call: it loads the
// frontier's keys into sc's dense table, which every call leaves +Inf
// again on return, so one scratch serves any number of trees of either
// kind in turn. Inside a call a node settled by an earlier one reads
// +Inf there, so the relaxation tells it by its next hop, the first time
// a link reaches it, and marks it -Inf, which fails every later
// comparison.
//
// Source trees are canonical: among equal-cost shortest paths a node's
// predecessor is its lowest-id one. A queued node's frontier entry
// carries that predecessor, and settling the node reads its next hop
// off it. That holds when every captured cost is positive (a zero-cost
// link can tie a node with a predecessor settled after it); under it the
// tree depends neither on the heap nor on where earlier calls stopped,
// so after any sequence of calls every settled node's next hop, and
// every frontier entry, equals a one-shot build's.
//
// Sink trees instead mark ties. A queued node's entry is tied while a
// second successor's way to the root is within ε of its key (tieEps),
// and settling node x marks it tied too when x has an out-link no
// dearer than 2·ε of its key: that link's far end may settle after x,
// too late to be seen. A source tree rooted at a can take a first hop
// other than a's sink successor only when a is tied, so an untied
// SinkHop is that source tree's next hop, whatever the heap order and
// call sequence.
//
//viator:noalloc
func (o *CostOverlay) SettleUntil(sc *SPTScratch, t *SPT, v NodeID) {
	if v >= 0 && t.Settled(v) {
		return
	}
	sc.load(o.n, t.frontier)
	if t.sink {
		o.settleSink(sc, t, int32(v))
	} else {
		o.settleSource(sc, t, int32(v))
	}
	sc.rest(t.frontier)
}

// load readies sc for a run over an n-node capture: its distance table
// grows to n entries, +Inf like the rest, and takes the frontier's keys.
//
//viator:noalloc
func (sc *SPTScratch) load(n int, h []frontierItem) {
	if len(sc.dist) < n {
		sc.dist = slices.Grow(sc.dist, n-len(sc.dist)) //viator:alloc-ok amortized capacity growth when n grows; steady state untouched
		for len(sc.dist) < n {
			sc.dist = append(sc.dist, math.Inf(1))
		}
	}
	for _, it := range h {
		sc.dist[it.node] = it.dist
	}
	sc.touched = sc.touched[:0]
}

// rest returns sc's distance table to +Inf at every entry a run set:
// the nodes it listed in touched and the frontier h it leaves behind.
//
//viator:noalloc
func (sc *SPTScratch) rest(h []frontierItem) {
	inf := math.Inf(1)
	for _, v := range sc.touched {
		sc.dist[v] = inf
	}
	for _, it := range h {
		sc.dist[it.node] = inf
	}
}

// settleSource is SettleUntil's loop for a source tree, over the
// out-links.
//
//viator:noalloc
func (o *CostOverlay) settleSource(sc *SPTScratch, t *SPT, dst int32) {
	src := int32(t.Source)
	dist, next := sc.dist, t.next
	start, tos, costs := o.start, o.to, o.cost
	h, touched := t.frontier, sc.touched
	for len(h) > 0 {
		top := h[0]
		h = frontierPop(h, next)
		u, du := top.node, top.dist
		touched = append(touched, u) //viator:alloc-ok amortized capacity growth to the touched count; steady state reuses the scratch
		// Settle-time next-hop fill, as in Graph.computeInto, through the
		// predecessor the entry carried.
		if u == src {
			next[u] = -1
		} else if p := top.prev; p == src {
			next[u] = u
		} else {
			next[u] = next[p]
		}
		for e, end := start[u], start[u+1]; e < end; e++ {
			to := tos[e]
			nd := du + costs[e]
			if d := dist[to]; nd < d {
				q := next[to]
				if q >= 0 || to == src {
					// Settled by an earlier call, so its distance is not
					// in sc; -Inf turns away every later link to it.
					dist[to] = math.Inf(-1)
					touched = append(touched, to) //viator:alloc-ok amortized capacity growth to the touched count; steady state reuses the scratch
					continue
				}
				dist[to] = nd
				if q == -1 {
					h = append(h, frontierItem{nd, to, u}) //viator:alloc-ok amortized frontier growth, bounded by n; steady state reuses the tree's frontier
					frontierUp(h, next, len(h)-1)
				} else {
					j := int(-2 - q)
					h[j].dist, h[j].prev = nd, u
					frontierUp(h, next, j)
				}
			} else if nd == d {
				// Canonical tie: the lowest predecessor id wins. Only a
				// queued node (next -2-pos) can tie and change: a settled
				// node, the source included, keeps its next hop.
				if q := next[to]; q < -1 {
					if j := int(-2 - q); u < h[j].prev {
						h[j].prev = u
					}
				}
			}
		}
		if u == dst {
			break
		}
	}
	sc.touched = touched
	t.frontier = h
}

// settleSink is SettleUntil's loop for a sink tree: it settles nodes in
// order of their distance to the root and relaxes each one's in-links,
// so a queued node's entry holds its best successor so far, with
// tiedBit while another successor is within ε of its key.
//
//viator:noalloc
func (o *CostOverlay) settleSink(sc *SPTScratch, t *SPT, at int32) {
	root := int32(t.Source)
	dist, next := sc.dist, t.next
	start, in := o.inStart, o.in
	eps, lowOut, minOut := o.eps, o.lowOut, o.minOut
	h, touched := t.frontier, sc.touched
	for len(h) > 0 {
		top := h[0]
		h = frontierPop(h, next)
		w, dw := top.node, top.dist
		touched = append(touched, w) //viator:alloc-ok amortized capacity growth to the touched count; steady state reuses the scratch
		if w == root {
			next[w] = -1
		} else if hop := top.prev; lowOut && minOut[w] <= 2*eps*dw {
			next[w] = hop | tiedBit
		} else {
			next[w] = hop
		}
		for _, l := range in[start[w]:start[w+1]] {
			u := l.from
			nd := dw + l.cost
			if d := dist[u]; nd < d {
				q := next[u]
				if q >= 0 || u == root {
					// Settled by an earlier call, as in settleSource.
					dist[u] = math.Inf(-1)
					touched = append(touched, u) //viator:alloc-ok amortized capacity growth to the touched count; steady state reuses the scratch
					continue
				}
				dist[u] = nd
				// Every earlier candidate costs d or more, so the new key
				// is tied exactly when the old one is close.
				hop := w
				if d-nd <= eps*nd {
					hop |= tiedBit
				}
				if q == -1 {
					h = append(h, frontierItem{nd, u, hop}) //viator:alloc-ok amortized frontier growth, bounded by n; steady state reuses the tree's frontier
					frontierUp(h, next, len(h)-1)
				} else {
					j := int(-2 - q)
					h[j].dist, h[j].prev = nd, hop
					frontierUp(h, next, j)
				}
			} else if nd-d <= eps*d {
				// A queued node's second successor comes close; a second
				// link to the same successor is no tie. (The gap is
				// tested first: it is rarely small, and next[u] is a
				// random read.)
				if q := next[u]; q < -1 {
					if j := int(-2 - q); h[j].prev&^tiedBit != w {
						h[j].prev |= tiedBit
					}
				}
			}
		}
		if w == at {
			break
		}
	}
	sc.touched = touched
	t.frontier = h
}

// Settled reports whether v's entries are final in t: v is the source,
// or its next hop has been set. Trees built by ComputeInto, and overlay
// trees settled with v = -1, are complete, so every reachable node is
// settled there.
func (t *SPT) Settled(v NodeID) bool { return v == t.Source || t.next[v] >= 0 }

// SinkHop reads a sink tree at a settled node at: the next hop from at
// toward the root (-1 at the root itself and at nodes the tree has not
// reached), and whether at is tied — it had a second way to the root
// within ε of its own (SettleUntil). An untied hop is the next hop of
// the source tree rooted at at toward the root; a tied one may not be,
// and a caller that must agree with source trees asks one instead.
//
//viator:noalloc
func (t *SPT) SinkHop(at NodeID) (hop NodeID, tied bool) {
	e := t.next[at]
	if e < 0 {
		return -1, false
	}
	return NodeID(e &^ tiedBit), e&tiedBit != 0
}

func (g *Graph) computeInto(sc *SPTScratch, t *SPT, src NodeID) *SPT {
	if sc == nil {
		sc = &SPTScratch{}
	}
	if t == nil {
		t = &SPT{}
	}
	n := g.n
	t.Source = src
	t.sink = false
	t.Dist = resize(t.Dist, n)
	t.Prev = resize(t.Prev, n)
	t.next = resize(t.next, n)
	for i := 0; i < n; i++ {
		t.Dist[i] = math.Inf(1)
		t.Prev[i] = -1
		t.next[i] = -1
	}
	t.frontier = t.frontier[:0]
	// Hoist every slice the relaxation loop touches into locals so the
	// compiler keeps them in registers across iterations.
	dist, prev, next := t.Dist, t.Prev, t.next
	links := g.link
	h := sc.heap[:0]
	dist[src] = 0
	h = spPush(h, spItem{src, 0})
	for len(h) > 0 {
		var it spItem
		h, it = spPop(h)
		u := it.node
		// A settled node has a next hop; the source is popped only once.
		if next[u] >= 0 {
			continue
		}
		// Settle-time next-hop fill: u's predecessor settled before u did
		// and Prev[u] is final here, so the first hop toward u is an O(1)
		// read off the predecessor's entry. This is what makes SPT.NextHop
		// an array lookup instead of a path reconstruction.
		if u != src {
			if p := prev[u]; NodeID(p) == src {
				next[u] = int32(u)
			} else {
				next[u] = next[p]
			}
		}
		du := dist[u]
		for _, li := range g.adj[u] {
			if !links[li].Up {
				continue
			}
			c := links[li].Cost
			if c < 0 {
				panic("topo: negative link cost")
			}
			to := links[li].To
			nd := du + c
			if nd < dist[to] {
				dist[to] = nd
				prev[to] = int32(u)
				h = spPush(h, spItem{to, nd})
			}
		}
	}
	sc.heap = h
	return t
}

// PathTo reconstructs the node sequence src..dst of a static tree
// (ComputeInto), or nil when dst is unreachable. It panics on
// an overlay tree, which keeps no predecessors to walk.
func (t *SPT) PathTo(dst NodeID) []NodeID {
	if len(t.Prev) != len(t.next) {
		panic("topo: PathTo on an overlay tree, which keeps only next hops")
	}
	if !t.Settled(dst) {
		return nil
	}
	var rev []NodeID
	for v := dst; v != -1; v = NodeID(t.Prev[v]) {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NextHop returns the first hop on a source tree's path source→dst, or
// -1 when dst is the source or unreachable; a sink tree is read with
// SinkHop. The hop table is filled at settle time during the Dijkstra
// run, so this is an O(1) array read on the forwarding hot path (it
// used to reconstruct and reverse the full path per call — once per hop
// per packet).
//
//viator:noalloc
func (t *SPT) NextHop(dst NodeID) NodeID {
	return NodeID(max(t.next[dst], -1)) // queued nodes hold -2-pos
}

// Connected reports whether every node can reach every other node over
// up links. It runs on the map-free flood kernel: a forward flood over
// the adjacency, then, only when that reaches every node, a flood from
// node 0 over the in-links. Its allocations are a fixed handful of flat
// arrays, whatever the graph's size — mobility probes it on every
// connectivity refresh.
func (g *Graph) Connected() bool {
	n := g.n
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	q := make([]NodeID, 1, n)
	seen[0] = true
	for head := 0; head < len(q); head++ {
		for _, li := range g.adj[q[head]] {
			if l := &g.link[li]; l.Up && !seen[l.To] {
				seen[l.To] = true
				q = append(q, l.To)
			}
		}
	}
	if len(q) != n {
		return false
	}
	// For directed graphs also check the reverse orientation.
	start, nbr := g.upCSR(false)
	clear(seen)
	return len(flood(start, nbr, seen, q[:0], 0)) == n
}

// Components returns the weakly connected components as sorted ID
// slices, ordered by first ID. Each component is one flood of the
// undirected up-link adjacency from its smallest unseen node, so the
// components come out in first-ID order; they share one backing array.
func (g *Graph) Components() [][]NodeID {
	start, nbr := g.upCSR(true)
	seen := make([]bool, g.n)
	q := make([]NodeID, 0, g.n)
	var comps [][]NodeID
	for i := 0; i < g.n; i++ {
		if seen[i] {
			continue
		}
		lo := len(q)
		q = flood(start, nbr, seen, q, NodeID(i))
		comp := q[lo:len(q):len(q)]
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// upCSR lays g's up links out as a compressed adjacency in one counting
// pass: node u's neighbors are nbr[start[u]:start[u+1]]. Each link
// From→To lists From among To's neighbors — the in-links — and, when
// undirected, To among From's too, in link index order.
func (g *Graph) upCSR(undirected bool) (start, nbr []int32) {
	start = make([]int32, g.n+1)
	for i := range g.link {
		if l := &g.link[i]; l.Up {
			start[l.To+1]++
			if undirected {
				start[l.From+1]++
			}
		}
	}
	for u := 0; u < g.n; u++ {
		start[u+1] += start[u]
	}
	nbr = make([]int32, start[g.n])
	// fill[u] is the next free slot of u's range; it walks start[u] up to
	// start[u+1], so start is rebuilt by shifting afterwards.
	fill := start[:g.n]
	for i := range g.link {
		if l := &g.link[i]; l.Up {
			nbr[fill[l.To]] = int32(l.From)
			fill[l.To]++
			if undirected {
				nbr[fill[l.From]] = int32(l.To)
				fill[l.From]++
			}
		}
	}
	copy(start[1:], start[:g.n])
	start[0] = 0
	return start, nbr
}

// flood is the breadth-first kernel of Connected and Components: it
// marks in seen every unseen node reachable from src over the CSR
// adjacency (start, nbr), src included, appends them to q in discovery
// order and returns q.
func flood(start, nbr []int32, seen []bool, q []NodeID, src NodeID) []NodeID {
	head := len(q)
	seen[src] = true
	q = append(q, src)
	for ; head < len(q); head++ {
		u := q[head]
		for _, v := range nbr[start[u]:start[u+1]] {
			if !seen[v] {
				seen[v] = true
				q = append(q, NodeID(v))
			}
		}
	}
	return q
}

// DOT renders the graph in Graphviz format with optional node labels.
func (g *Graph) DOT(name string, label func(NodeID) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", name)
	for i := 0; i < g.n; i++ {
		l := fmt.Sprintf("n%d", i)
		if label != nil {
			l = label(NodeID(i))
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", i, l)
	}
	for _, l := range g.link {
		if !l.Up {
			continue
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%.3g\"];\n", l.From, l.To, l.Cost)
	}
	b.WriteString("}\n")
	return b.String()
}

// BFSScratch is the reusable working memory of a breadth-first search:
// the predecessor table, the visited set and the queue. Like SPTScratch
// it is not safe for concurrent use.
type BFSScratch struct {
	prev  []NodeID
	seen  []bool
	queue []NodeID
}

// Prev returns v's predecessor from the latest BFSInto run on this
// scratch (-1 at the source and for undiscovered nodes).
func (sc *BFSScratch) Prev(v NodeID) NodeID { return sc.prev[v] }

// BFSInto runs a breadth-first flood from src over up links into the
// scratch's predecessor table, stopping at the step that discovers dst,
// and reports whether dst was discovered. onEdge, when non-nil, is called
// once per link traversal attempt in deterministic link-insertion order —
// including arrivals at already-visited nodes — mirroring one radio
// transmission per flood edge (AODV's control-message accounting).
// Note that src itself is never "discovered": a search for src==dst
// floods the whole component and reports false, exactly like a route
// request whose target is the requester.
func (g *Graph) BFSInto(sc *BFSScratch, src, dst NodeID, onEdge func(from, to NodeID)) bool {
	n := g.n
	sc.prev = resize(sc.prev, n)
	sc.seen = resize(sc.seen, n)
	for i := 0; i < n; i++ {
		sc.prev[i] = -1
		sc.seen[i] = false
	}
	q := sc.queue[:0]
	sc.seen[src] = true
	q = append(q, src)
	found := false
	for head := 0; head < len(q) && !found; head++ {
		u := q[head]
		for _, li := range g.adj[u] {
			if !g.link[li].Up {
				continue
			}
			v := g.link[li].To
			if onEdge != nil {
				onEdge(u, v)
			}
			if sc.seen[v] {
				continue
			}
			sc.seen[v] = true
			sc.prev[v] = u
			if v == dst {
				found = true
				break
			}
			q = append(q, v)
		}
	}
	sc.queue = q[:0]
	return found
}
