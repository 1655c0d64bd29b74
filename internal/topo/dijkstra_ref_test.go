package topo

import (
	"container/heap"
	"math"
	"slices"
	"testing"
	"viator/internal/allocpin"

	"viator/internal/sim"
)

// This file retains the pre-overhaul container/heap Dijkstra verbatim as
// the oracle for the scratch-based kernel: the rewrite must reproduce its
// trees exactly — distances, predecessors and therefore every equal-cost
// tie-break — on arbitrary graphs under arbitrary link churn, because the
// experiment catalog's byte-identical determinism contract rides on those
// tie-breaks.

type refItem struct {
	node NodeID
	dist float64
}

type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// referenceDijkstra is the original implementation: boxed heap, lazy
// deletion, relaxation in adjacency order over up links. Only its Prev
// storage follows SPT's to int32.
func referenceDijkstra(g *Graph, src NodeID) *SPT {
	t := &SPT{Source: src, Dist: make([]float64, g.N()), Prev: make([]int32, g.N())}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Prev[i] = -1
	}
	t.Dist[src] = 0
	h := &refHeap{{src, 0}}
	done := make([]bool, g.N())
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, li := range g.adj[u] {
			l := g.link[li]
			if !l.Up {
				continue
			}
			if l.Cost < 0 {
				panic("topo: negative link cost")
			}
			nd := t.Dist[u] + l.Cost
			if nd < t.Dist[l.To] {
				t.Dist[l.To] = nd
				t.Prev[l.To] = int32(u)
				heap.Push(h, refItem{l.To, nd})
			}
		}
	}
	return t
}

// canonicalReference is referenceDijkstra verbatim plus the overlay
// kernel's tie rule: an equal-distance relaxation of an unsettled node
// keeps the lowest predecessor id. With positive costs that makes the
// tree unique, so it is the oracle for CostOverlay trees, whose heap
// pops equal keys in a different order. The static kernel keeps
// referenceDijkstra.
func canonicalReference(g *Graph, src NodeID) *SPT {
	t := &SPT{Source: src, Dist: make([]float64, g.N()), Prev: make([]int32, g.N())}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Prev[i] = -1
	}
	t.Dist[src] = 0
	h := &refHeap{{src, 0}}
	done := make([]bool, g.N())
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, li := range g.adj[u] {
			l := g.link[li]
			if !l.Up {
				continue
			}
			if l.Cost < 0 {
				panic("topo: negative link cost")
			}
			nd := t.Dist[u] + l.Cost
			if nd < t.Dist[l.To] {
				t.Dist[l.To] = nd
				t.Prev[l.To] = int32(u)
				heap.Push(h, refItem{l.To, nd})
			} else if nd == t.Dist[l.To] && !done[l.To] && int32(u) < t.Prev[l.To] {
				t.Prev[l.To] = int32(u)
			}
		}
	}
	return t
}

// expectEqualSPT requires exact equality — including tie-breaks — between
// a computed tree and the reference, and that the precomputed next-hop
// table agrees with path reconstruction on the reference tree. ov is the
// capture an overlay tree was built over, nil for a static tree.
func expectEqualSPT(t *testing.T, ov *CostOverlay, got, ref *SPT) {
	t.Helper()
	n := len(ref.Dist)
	stored := n
	if ov != nil {
		stored = 0 // overlay trees store only next hops
	}
	if len(got.Dist) != stored || len(got.Prev) != stored || len(got.next) != n {
		t.Fatalf("size mismatch: got %d/%d/%d want %d/%d/%d",
			len(got.Dist), len(got.Prev), len(got.next), stored, stored, n)
	}
	for i := 0; i < n; i++ {
		expectNodeEqual(t, ov, got, ref, NodeID(i))
	}
	if ov != nil {
		expectFrontierCanonical(t, ov, got, ref)
	}
}

// cheapest is the lowest captured cost of an edge p→u, +Inf if none.
func cheapest(ov *CostOverlay, p, u NodeID) float64 {
	c := math.Inf(1)
	for _, l := range ov.in[ov.inStart[u]:ov.inStart[u+1]] {
		if NodeID(l.from) == p {
			c = min(c, l.cost)
		}
	}
	return c
}

// expectNodeEqual requires v's next hop in got to equal the reference
// tree's, and in a static tree (ov == nil) its distance and predecessor
// too. An overlay tree stores only next hops; its distances and
// predecessors are checked where it still keeps them, in its frontier
// (expectFrontierCanonical).
func expectNodeEqual(t *testing.T, ov *CostOverlay, got, ref *SPT, v NodeID) {
	t.Helper()
	if ov == nil {
		if d := got.Dist[v]; d != ref.Dist[v] && !(math.IsInf(d, 1) && math.IsInf(ref.Dist[v], 1)) {
			t.Fatalf("dist[%d] = %v, reference %v", v, d, ref.Dist[v])
		}
		if got.Prev[v] != ref.Prev[v] {
			t.Fatalf("prev[%d] = %d, reference %d", v, got.Prev[v], ref.Prev[v])
		}
	}
	if hop, want := got.NextHop(v), refNextHop(ref, v); hop != want {
		t.Fatalf("next hop to %d = %d, reference %d", v, hop, want)
	}
}

// expectFrontierCanonical checks every entry of an overlay tree's
// frontier against the reference and the capture. The settled nodes
// have relaxed all their edges, so a queued node's key must be the
// cheapest way to it through a settled node, ref.Dist[p] + cheapest(p,
// v) bit for bit, and its prev the lowest-id settled p that achieves
// it: the canonical tie rule. The source, queued before anything is
// settled, has key 0 and prev -1. Each entry must also sit where its
// node's next entry (-2-pos) says it does.
func expectFrontierCanonical(t *testing.T, ov *CostOverlay, got, ref *SPT) {
	t.Helper()
	for i, q := range got.frontier {
		v := NodeID(q.node)
		if got.next[v] != int32(-2-i) {
			t.Fatalf("queued node %d at position %d has next %d, want %d", v, i, got.next[v], -2-i)
		}
		key, prev := 0.0, int32(-1)
		if v != got.Source {
			key = math.Inf(1)
			for p := 0; p < len(got.next); p++ {
				if !got.Settled(NodeID(p)) {
					continue
				}
				if d := ref.Dist[p] + cheapest(ov, NodeID(p), v); d < key {
					key, prev = d, int32(p)
				}
			}
		}
		if q.dist != key || q.prev != prev {
			t.Fatalf("queued node %d has key %v via %d, want %v via settled %d", v, q.dist, q.prev, key, prev)
		}
	}
}

// refNextHop is the first hop toward v in a reference tree, which has no
// hop table: the node on v's Prev chain whose predecessor is the source,
// or -1 when v is the source or unreachable.
func refNextHop(ref *SPT, v NodeID) NodeID {
	if v == ref.Source || math.IsInf(ref.Dist[v], 1) {
		return -1
	}
	for NodeID(ref.Prev[v]) != ref.Source {
		v = NodeID(ref.Prev[v])
	}
	return v
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, version: g.version}
	c.adj = make([][]int, len(g.adj))
	for i, a := range g.adj {
		c.adj[i] = append([]int(nil), a...)
	}
	c.link = append([]Link(nil), g.link...)
	c.pos = append([]Point(nil), g.pos...)
	return c
}

// churn applies a burst of random link mutations: up/down flips, cost
// changes, and occasionally a brand-new link pair.
func churn(g *Graph, rng *sim.RNG) {
	for k := 0; k < 12; k++ {
		switch rng.Intn(4) {
		case 0:
			li := rng.Intn(g.Links())
			g.SetUp(li, !g.Link(li).Up)
		case 1, 2:
			g.SetCost(rng.Intn(g.Links()), rng.Float64()*3)
		case 3:
			a := NodeID(rng.Intn(g.N()))
			b := NodeID(rng.Intn(g.N()))
			if a != b {
				g.ConnectBoth(a, b, rng.Float64()*2)
			}
		}
	}
}

func TestDijkstraMatchesReferenceUnderChurn(t *testing.T) {
	rng := sim.NewRNG(123)
	for trial := 0; trial < 6; trial++ {
		var g *Graph
		if trial%2 == 0 {
			g = Waxman(40, 0.4, 0.3, rng)
		} else {
			g = RandomGeometric(40, 10, 2.5, rng)
		}
		if g.Links() == 0 {
			g.ConnectBoth(0, 1, 1)
		}
		sc := &SPTScratch{}
		spt := &SPT{}
		for round := 0; round < 5; round++ {
			churn(g, rng)
			for s := 0; s < g.N(); s += 5 {
				expectEqualSPT(t, nil, g.ComputeInto(sc, spt, NodeID(s)), referenceDijkstra(g, NodeID(s)))
				// The one-shot wrapper must agree too.
				expectEqualSPT(t, nil, g.ComputeInto(nil, nil, NodeID(s)), referenceDijkstra(g, NodeID(s)))
			}
		}
	}
}

// TestCostOverlayMatchesReferenceAndFreezes checks the CSR capture: the
// overlay must equal the canonical reference on an equivalently
// reweighted clone, and — the property the lazy control plane rests on —
// computing from the capture after further live-graph mutations must
// still reproduce the capture-time tree, not the live one.
func TestCostOverlayMatchesReferenceAndFreezes(t *testing.T) {
	rng := sim.NewRNG(7)
	g := Waxman(30, 0.5, 0.3, rng)
	if g.Links() == 0 {
		g.ConnectBoth(0, 1, 1)
	}
	for k := 0; k < 4; k++ {
		g.SetUp(rng.Intn(g.Links()), false)
	}
	reweight := make([]float64, g.Links())
	for li := range reweight {
		reweight[li] = rng.Float64() * 5
	}
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return reweight[li] })
	oracle := g.Clone()
	for li := 0; li < oracle.Links(); li++ {
		oracle.SetCost(li, reweight[li])
	}
	for s := 0; s < g.N(); s++ {
		expectEqualSPT(t, &ov, oneShot(&ov, NodeID(s)), canonicalReference(oracle, NodeID(s)))
	}
	// Mutate the live graph heavily; the capture must not move.
	churn(g, rng)
	for s := 0; s < g.N(); s += 3 {
		expectEqualSPT(t, &ov, oneShot(&ov, NodeID(s)), canonicalReference(oracle, NodeID(s)))
	}
}

// oneShot builds the complete overlay tree from src over ov in one run,
// on a fresh tree and scratch.
func oneShot(ov *CostOverlay, src NodeID) *SPT {
	t := &SPT{}
	ov.StartInto(t, src)
	ov.SettleUntil(&SPTScratch{}, t, -1)
	return t
}

// expectSettledMatch requires every node settled in a (possibly partial)
// overlay tree over ov to equal the reference, and its frontier to be
// canonical.
func expectSettledMatch(t *testing.T, ov *CostOverlay, got, ref *SPT) {
	t.Helper()
	for i := range ref.Dist {
		if got.Settled(NodeID(i)) {
			expectNodeEqual(t, ov, got, ref, NodeID(i))
		}
	}
	expectFrontierCanonical(t, ov, got, ref)
}

// TestSettleUntilMatchesReference drives random sequences of bounded
// settles — reachable, unreachable and repeated targets and the source
// itself — on Waxman graphs (float costs) and grids (unit costs, dense
// equal-cost ties). After every step each settled node must equal the
// canonical reference — its next hop, and every frontier entry's key and
// predecessor — nothing beyond the target's distance may be settled, and
// settling to completion must reproduce a one-shot build exactly. One
// tree is reused across sources without completing, so every StartInto
// must discard the previous run's frontier.
func TestSettleUntilMatchesReference(t *testing.T) {
	rng := sim.NewRNG(31)
	for trial := 0; trial < 6; trial++ {
		var g *Graph
		if trial%2 == 0 {
			g = Waxman(40, 0.4, 0.3, rng)
			churn(g, rng)
		} else {
			g = Grid(6, 6)
		}
		g.AddNode() // isolated: always unreachable
		var ov CostOverlay
		g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
		n := g.N()
		sc, tree := &SPTScratch{}, &SPT{}
		for s := 0; s < n; s += 4 {
			src := NodeID(s)
			ref := canonicalReference(g, src)
			ov.StartInto(tree, src)
			prevDst := src
			for step := 0; step < 12; step++ {
				var dst NodeID
				switch rng.Intn(5) {
				case 0:
					dst = src
				case 1:
					dst = prevDst
				case 2:
					dst = NodeID(n - 1)
				default:
					dst = NodeID(rng.Intn(n))
				}
				ov.SettleUntil(sc, tree, dst)
				expectSettledMatch(t, &ov, tree, ref)
				if math.IsInf(ref.Dist[dst], 1) {
					continue
				}
				if !tree.Settled(dst) {
					t.Fatalf("trial %d src %d: reachable %d not settled", trial, src, dst)
				}
				prevDst = dst
			}
			// Bounded: a fresh run toward one target settles nothing farther.
			dst := NodeID(rng.Intn(n))
			ov.StartInto(tree, src)
			ov.SettleUntil(sc, tree, dst)
			for v := 0; v < n; v++ {
				if tree.Settled(NodeID(v)) && ref.Dist[v] > ref.Dist[dst] {
					t.Fatalf("trial %d src %d: settling %d overran to %d", trial, src, dst, v)
				}
			}
			ov.SettleUntil(sc, tree, -1)
			if one := oneShot(&ov, src); !slices.Equal(tree.next, one.next) || len(tree.frontier) != 0 {
				t.Fatalf("trial %d src %d: completed tree differs from one-shot", trial, src)
			}
			expectEqualSPT(t, &ov, tree, ref)
			ov.StartInto(tree, (src+1)%NodeID(n)) // leave a partial run behind
			ov.SettleUntil(sc, tree, src)
		}
	}
}

// expectScratchAtRest requires every entry of sc's distance table to be
// +Inf, the state each SettleUntil call must leave it in.
func expectScratchAtRest(t *testing.T, sc *SPTScratch, what string) {
	t.Helper()
	for v, d := range sc.dist {
		if !math.IsInf(d, 1) {
			t.Fatalf("%s: scratch dist[%d] = %v at rest, want +Inf", what, v, d)
		}
	}
}

// TestSettleScratchRestsAtInf drives random call sequences on Waxman
// graphs and grids — partial and complete runs, a target already
// settled, an unreachable target, the root as target, and a restart of
// either kind in the middle of a run — over two source trees and two
// sink trees that share one scratch. After every call the scratch must
// be back at rest, +Inf everywhere, every settled node of a source tree
// must still equal the canonical reference, and every untied node of a
// sink tree the source tree rooted there: an entry left behind would
// hand one tree's distances to the other's next run.
func TestSettleScratchRestsAtInf(t *testing.T) {
	rng := sim.NewRNG(57)
	for trial := 0; trial < 6; trial++ {
		var g *Graph
		if trial%2 == 0 {
			g = Waxman(50, 0.4, 0.3, rng)
		} else {
			g = Grid(7, 7)
		}
		iso := g.AddNode() // isolated: always unreachable
		var ov CostOverlay
		g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
		n := g.N()
		refs := map[NodeID]*SPT{}
		ref := func(src NodeID) *SPT {
			if refs[src] == nil {
				refs[src] = canonicalReference(g, src)
			}
			return refs[src]
		}
		sources := sourceTrees(&ov)
		sc := &SPTScratch{}
		trees := []*SPT{{}, {}, {}, {}}
		for i, tree := range trees {
			if i%2 == 0 {
				ov.StartInto(tree, NodeID(rng.Intn(n)))
			} else {
				ov.StartSinkInto(tree, NodeID(rng.Intn(n)))
			}
		}
		for step := 0; step < 150; step++ {
			tree := trees[rng.Intn(len(trees))]
			var what string
			switch rng.Intn(6) {
			case 0:
				what = "partial run"
				ov.SettleUntil(sc, tree, NodeID(rng.Intn(n)))
			case 1:
				what = "complete run"
				ov.SettleUntil(sc, tree, -1)
			case 2:
				what = "settled dst"
				dst := tree.Source
				for v := 0; v < n; v++ {
					if tree.Settled(NodeID(v)) && rng.Intn(2) == 0 {
						dst = NodeID(v)
					}
				}
				ov.SettleUntil(sc, tree, dst)
			case 3:
				what = "unreachable dst"
				ov.SettleUntil(sc, tree, iso)
			case 4:
				what = "source as dst"
				ov.SettleUntil(sc, tree, tree.Source)
			default:
				what = "restart mid-run"
				if rng.Intn(2) == 0 {
					ov.StartInto(tree, NodeID(rng.Intn(n)))
				} else {
					ov.StartSinkInto(tree, NodeID(rng.Intn(n)))
				}
			}
			expectScratchAtRest(t, sc, what)
			if tree.sink {
				expectSinkAgrees(t, tree, sources)
			} else {
				expectSettledMatch(t, &ov, tree, ref(tree.Source))
			}
		}
	}
}

// TestOverlayTreeBytesPerNode pins an overlay tree's size, for both
// kinds: StartInto or StartSinkInto on a fresh tree over a 100k-node
// capture allocates the next hops, 4 B a node, plus a small constant —
// the tree itself, a one-entry frontier and the allocator's page
// rounding of the array. A tree that kept predecessors too would take
// 8 B a node, and with distances 16 B. A sink tree's tie marks ride in
// its next-hop entries.
func TestOverlayTreeBytesPerNode(t *testing.T) {
	const n = 100_000
	g := Line(n)
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
	ov.StartInto(&SPT{}, 0) // builds the capture's out-link CSR once
	for _, kind := range []struct {
		name  string
		start func(*SPT, NodeID)
	}{{"StartInto", ov.StartInto}, {"StartSinkInto", ov.StartSinkInto}} {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kind.start(&SPT{}, 0)
			}
		})
		if got, limit := res.AllocedBytesPerOp(), int64(4*n+16<<10); got > limit {
			t.Fatalf("%s on a fresh %d-node tree allocated %d B, want at most %d (4 B a node + 16 KiB)", kind.name, n, got, limit)
		}
	}
}

// TestPartialTreeHidesFrontier checks the frontier's entries: a node
// waiting in a partial tree's heap holds -2-pos in next, its entry keys
// it by its tentative distance through its canonical settled
// predecessor, which the entry carries, and it is neither settled nor
// routed to.
func TestPartialTreeHidesFrontier(t *testing.T) {
	g := Grid(6, 6)
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
	tree := &SPT{}
	ov.StartInto(tree, 0)
	ov.SettleUntil(&SPTScratch{}, tree, 1)
	if len(tree.frontier) == 0 {
		t.Fatal("settling a neighbor should leave a frontier")
	}
	expectFrontierCanonical(t, &ov, tree, canonicalReference(g, 0))
	for _, q := range tree.frontier {
		v := NodeID(q.node)
		if tree.Settled(v) {
			t.Fatalf("queued node %d reported settled", v)
		}
		if hop := tree.NextHop(v); hop != -1 {
			t.Fatalf("queued node %d has next hop %d, want -1", v, hop)
		}
	}
	if hop := tree.NextHop(0); hop != -1 {
		t.Fatalf("source next hop %d, want -1", hop)
	}
}

// TestFrontierEntryTakesTiedPredecessor builds a tie whose lower-id
// predecessor relaxes last: node 3 is reached at distance 3 through 2
// (settled first, at 1) and then through 1 (settled at 2). The entry
// queued via 2 must switch to 1 and keep its key, whether 1 is settled
// in the call that queued 3 or in a later call resuming the frontier.
func TestFrontierEntryTakesTiedPredecessor(t *testing.T) {
	g := New()
	g.AddNodes(5)
	g.Connect(0, 1, 2)
	g.Connect(0, 2, 1)
	g.Connect(2, 3, 2)
	g.Connect(1, 3, 1)
	g.Connect(3, 4, 1)
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
	for _, stops := range [][]NodeID{{1}, {2, 1}} {
		tree, sc := &SPT{}, &SPTScratch{}
		ov.StartInto(tree, 0)
		for _, dst := range stops {
			ov.SettleUntil(sc, tree, dst)
		}
		want := []frontierItem{{3, 3, 1}}
		if !slices.Equal(tree.frontier, want) {
			t.Fatalf("stops %v: frontier %v, want %v", stops, tree.frontier, want)
		}
		ov.SettleUntil(sc, tree, -1)
		if hop := tree.NextHop(4); hop != 1 {
			t.Fatalf("stops %v: next hop to 4 = %d, want 1 (via the tied predecessor)", stops, hop)
		}
	}
}

// TestPathToRefusesOverlayTree checks that PathTo fails loudly on an
// overlay tree, which keeps no predecessors, instead of returning a
// path, and still walks a static tree.
func TestPathToRefusesOverlayTree(t *testing.T) {
	g := Line(3)
	if p := g.ComputeInto(nil, nil, 0).PathTo(2); !slices.Equal(p, []NodeID{0, 1, 2}) {
		t.Fatalf("static path = %v, want [0 1 2]", p)
	}
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
	tree := oneShot(&ov, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("PathTo on an overlay tree returned instead of panicking")
		}
	}()
	tree.PathTo(2)
}

// expectSameTree requires two trees to hold identical arrays and
// frontiers, every entry's key included: a recycled tree must be
// indistinguishable from a fresh one.
func expectSameTree(t *testing.T, what string, got, want *SPT) {
	t.Helper()
	if got.Source != want.Source || got.sink != want.sink || !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.Prev, want.Prev) ||
		!slices.Equal(got.next, want.next) || !slices.Equal(got.frontier, want.frontier) {
		t.Fatalf("%s: recycled tree differs from a fresh one", what)
	}
}

// TestRecycledTreeMatchesFresh reuses one tree for every kind of run in
// turn — static ComputeInto, partial and complete source and sink runs,
// and runs left unsettled for the next restart — and requires each
// result to equal the same run on a fresh tree. Static builds leave no
// frontier and no -2-pos entries, overlay runs do, and sink runs leave
// tie marks, so each kind must leave the tree in a state the others'
// resets fully clear.
func TestRecycledTreeMatchesFresh(t *testing.T) {
	rng := sim.NewRNG(11)
	g := RandomGeometric(200, 100, 15, rng)
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
	n := g.N()
	sc, tree := &SPTScratch{}, &SPT{}
	for step := 0; step < 90; step++ {
		root := NodeID(rng.Intn(n))
		start, kind := ov.StartInto, "source"
		if rng.Intn(2) == 0 {
			start, kind = ov.StartSinkInto, "sink"
		}
		run := func(t *SPT, sc *SPTScratch, v NodeID) *SPT {
			start(t, root)
			ov.SettleUntil(sc, t, v)
			return t
		}
		switch rng.Intn(4) {
		case 0:
			expectSameTree(t, "ComputeInto", g.ComputeInto(sc, tree, root), g.ComputeInto(nil, nil, root))
		case 1: // a partial run: toward a neighbor or a random node
			v := NodeID(rng.Intn(n))
			if nb := g.Neighbors(root); len(nb) > 0 {
				v = nb[rng.Intn(len(nb))]
			}
			expectSameTree(t, "partial "+kind+" run", run(tree, sc, v), run(&SPT{}, &SPTScratch{}, v))
		case 2:
			expectSameTree(t, "complete "+kind+" run", run(tree, sc, -1), run(&SPT{}, &SPTScratch{}, -1))
		default: // a run left behind for the next restart, perhaps unsettled
			start(tree, root)
			if rng.Intn(2) == 0 {
				ov.SettleUntil(sc, tree, NodeID(rng.Intn(n)))
			}
		}
	}
}

// TestComputeIntoAllocationFree pins the scratch-kernel contract: once
// the tree and scratch have grown to the graph, repeated single-source
// builds allocate nothing — the property every per-pulse recomputation
// in the routing control plane relies on.
func TestComputeIntoAllocationFree(t *testing.T) {
	g := ConnectedWaxman(64, 0.4, 0.3, sim.NewRNG(5))
	sc, spt := &SPTScratch{}, &SPT{}
	g.ComputeInto(sc, spt, 0)
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
	allocpin.Zero(t, 50, func() { g.ComputeInto(sc, spt, 3) }, "(*Graph).ComputeInto")
	far := NodeID(g.N() - 1)
	allocpin.Zero(t, 50, func() {
		ov.StartInto(spt, 7)
		ov.SettleUntil(sc, spt, far)
		ov.SettleUntil(sc, spt, -1)
	}, "(*CostOverlay).StartInto", "(*CostOverlay).SettleUntil")
	allocpin.Zero(t, 50, func() { g.CaptureInto(&ov, func(li int) float64 { return 1 }) }, "(*Graph).CaptureInto")
}

// TestNextHopAllocationFree pins the forwarding-path lookup at 0
// allocs/op — it used to reconstruct and reverse the full path per call,
// once per hop per packet.
func TestNextHopAllocationFree(t *testing.T) {
	g := ConnectedWaxman(64, 0.4, 0.3, sim.NewRNG(6))
	spt := g.ComputeInto(nil, nil, 0)
	dst := NodeID(g.N() - 1)
	if spt.NextHop(dst) == -1 {
		t.Fatal("expected a route in a connected graph")
	}
	allocpin.Zero(t, 100, func() { spt.NextHop(dst) }, "(*SPT).NextHop")
}

func TestBFSInto(t *testing.T) {
	g := Ring(6)
	var sc BFSScratch
	edges := 0
	if !g.BFSInto(&sc, 0, 3, func(from, to NodeID) { edges++ }) {
		t.Fatal("ring should reach 3")
	}
	if edges == 0 {
		t.Fatal("no edge callbacks")
	}
	// Predecessor chain walks back to the source.
	hops := 0
	for v := NodeID(3); v != 0; v = sc.Prev(v) {
		hops++
		if hops > g.N() {
			t.Fatal("prev chain does not reach source")
		}
	}
	if hops != 3 {
		t.Fatalf("ring 0→3 took %d hops, want 3", hops)
	}
	// Exact flood accounting on a line: 0→1 discovers, 1→0 re-visits,
	// 1→2 discovers the target; the flood stops there.
	line := Line(3)
	edges = 0
	if !line.BFSInto(&sc, 0, 2, func(from, to NodeID) { edges++ }) {
		t.Fatal("line should reach 2")
	}
	if edges != 3 {
		t.Fatalf("line flood sent %d transmissions, want 3", edges)
	}
	// A partitioned target is not found.
	p := New()
	p.AddNodes(2)
	if p.BFSInto(&sc, 0, 1, nil) {
		t.Fatal("found across partition")
	}
	// Flood semantics: the source is never "discovered" as a target.
	if g.BFSInto(&sc, 0, 0, nil) {
		t.Fatal("src==dst should flood and report not found")
	}
}

// TestVersionTracksLinkState pins the widened Version contract the pulse
// gate depends on: adds, up/down flips and cost changes move it; no-op
// writes do not.
func TestVersionTracksLinkState(t *testing.T) {
	g := Line(3)
	v := g.Version()
	g.SetUp(0, true) // already up: no-op
	g.SetCost(0, g.Link(0).Cost)
	if g.Version() != v {
		t.Fatal("no-op writes must not move Version")
	}
	g.SetUp(0, false)
	if g.Version() == v {
		t.Fatal("SetUp change must move Version")
	}
	v = g.Version()
	g.SetCost(1, 42)
	if g.Version() == v {
		t.Fatal("SetCost change must move Version")
	}
	v = g.Version()
	g.Connect(0, 2, 1)
	if g.Version() == v {
		t.Fatal("Connect must move Version")
	}
	v = g.Version()
	g.AddNode()
	if g.Version() == v {
		t.Fatal("AddNode must move Version")
	}
}
