package topo

import (
	"slices"
	"testing"

	"viator/internal/sim"
)

// This file checks sink trees against source trees, the oracle of
// record: a sink tree's untied hop at a node must be the next hop of the
// one-shot source tree rooted there, on any capture, after any sequence
// of partial and resumed runs, and whatever source runs share its
// scratch.

// sourceTrees builds the complete one-shot source tree rooted at every
// node of ov.
func sourceTrees(ov *CostOverlay) []*SPT {
	out := make([]*SPT, ov.N())
	for v := range out {
		out[v] = oneShot(ov, NodeID(v))
	}
	return out
}

// expectSinkAgrees checks every node the sink tree s has settled: it
// must reach s's root in its source tree, and an untied one must take
// the source tree's next hop. It returns the number of tied nodes, and
// of untied nodes with a tied node further down their sink path: those
// agree because only a node's own tie can change its first hop.
func expectSinkAgrees(t *testing.T, s *SPT, sources []*SPT) (tied, tiedBelow int) {
	t.Helper()
	root := s.Source
	for v, src := range sources {
		at := NodeID(v)
		if at == root || !s.Settled(at) {
			continue
		}
		if !src.Settled(root) {
			t.Fatalf("sink tree toward %d settled %d, which cannot reach it", root, at)
		}
		hop, tie := s.SinkHop(at)
		if tie {
			tied++
			continue
		}
		if want := src.NextHop(root); hop != want {
			t.Fatalf("untied sink hop %d→%d = %d, source tree %d", at, root, hop, want)
		}
		for u := hop; u != root; {
			next, tie := s.SinkHop(u)
			if tie {
				tiedBelow++
				break
			}
			u = next
		}
	}
	return tied, tiedBelow
}

// roundingGraph's two paths 0→5 tie in exact arithmetic, 2.4+2.3+3.1 =
// 1.0+3.9+2.9, but round apart by two ulps between the summation orders:
// the source tree at 0 takes the first path (first hop 1), while the
// sink run prices the second (first hop 3) lower.
func roundingGraph() *Graph {
	g := New()
	g.AddNodes(6)
	for _, l := range []struct {
		a, b NodeID
		c    float64
	}{{0, 1, 2.4}, {1, 2, 2.3}, {2, 5, 3.1}, {0, 3, 1.0}, {3, 4, 3.9}, {4, 5, 2.9}} {
		g.ConnectBoth(l.a, l.b, l.c)
	}
	return g
}

// zeroCostGraph ties node 2's two ways to 3 through a zero-cost link:
// 2→3 directly, and 2→1 (cost 0) →0→3. Both cost 1, and the source tree
// at 2 takes the second, whose last predecessor 0 has the lower id. The
// sink run settles 2 before 1, so it never relaxes 2's link to 1 while 2
// is queued: only the zero-cost link itself can mark 2 tied.
func zeroCostGraph() *Graph {
	g := New()
	g.AddNodes(4)
	g.Connect(2, 3, 1)
	g.Connect(2, 1, 0)
	g.Connect(1, 0, 0.5)
	g.Connect(0, 3, 0.5)
	return g
}

// gridWithTail is a 6×6 unit-cost grid plus node 36 hanging off corner
// 0: the tail's one way into the grid is untied, while the corner's ways
// across it tie.
func gridWithTail() *Graph {
	g := Grid(6, 6)
	g.ConnectBoth(g.AddNodes(1), 0, 1)
	return g
}

// zeroCostWaxman is a churned Waxman graph with duplicate links and a
// few links priced at zero, where source trees' ties depend on the order
// of each node's out-links.
func zeroCostWaxman(rng *sim.RNG) *Graph {
	g := Waxman(40, 0.4, 0.3, rng)
	churn(g, rng)
	for k := 0; k < 10; k++ {
		g.SetCost(rng.Intn(g.Links()), 0)
	}
	for k := 0; k < 5; k++ {
		l := g.Link(rng.Intn(g.Links()))
		g.Connect(l.From, l.To, l.Cost) // a parallel link
	}
	return g
}

// TestSinkTreeMatchesSourceTrees drives every destination's sink tree
// through random partial, resumed and complete runs on Waxman,
// random-geometric, unit-cost grid (with a tail), rounding and
// zero-cost captures, each with an isolated node. After every call the scratch must rest at
// +Inf and every settled node agree with the source trees; a reachable
// target must be settled. Between sink calls a source run — the tie
// fallback's — shares the scratch, and its settled hops must match its
// one-shot tree. Complete sink trees are tied on the grid and the
// rounding capture and nowhere on the geometric graphs, and on the grid
// untied nodes, the tail among them, have tied nodes further down their
// path.
func TestSinkTreeMatchesSourceTrees(t *testing.T) {
	rng := sim.NewRNG(41)
	waxman := Waxman(40, 0.4, 0.3, rng)
	churn(waxman, rng)
	for _, tc := range []struct {
		name string
		g    *Graph
		// tied says whether complete sink trees hold tied nodes.
		tied bool
	}{
		{"waxman", waxman, false},
		{"geometric", RandomGeometric(50, 100, 25, rng), false},
		{"grid", gridWithTail(), true},
		{"rounding", roundingGraph(), true},
		{"zero-cost", zeroCostWaxman(rng), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			g.AddNodes(1) // isolated: reaches nothing
			var ov CostOverlay
			g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
			n := g.N()
			sources := sourceTrees(&ov)
			sc, sink, fwd := &SPTScratch{}, &SPT{}, &SPT{}
			ov.StartInto(fwd, 0)
			tied, tiedBelow := 0, 0
			for d := 0; d < n; d++ {
				dst := NodeID(d)
				ov.StartSinkInto(sink, dst)
				for step := 0; step < 8; step++ {
					at := NodeID(rng.Intn(n))
					if step == 7 {
						at = -1
					}
					ov.SettleUntil(sc, sink, at)
					expectScratchAtRest(t, sc, "sink run")
					k, below := expectSinkAgrees(t, sink, sources)
					if at < 0 {
						tied, tiedBelow = tied+k, tiedBelow+below
						continue
					}
					if sources[at].Settled(dst) && !sink.Settled(at) {
						t.Fatalf("sink tree toward %d: reachable %d not settled", dst, at)
					}
					// A tie fallback: the source tree at at, settled toward
					// dst on the same scratch.
					if rng.Intn(2) == 0 {
						ov.StartInto(fwd, at)
					}
					ov.SettleUntil(sc, fwd, dst)
					expectScratchAtRest(t, sc, "source run")
					if tc.name == "zero-cost" {
						continue // partial source trees are canonical only with positive costs
					}
					for v := 0; v < n; v++ {
						if fwd.Settled(NodeID(v)) && fwd.NextHop(NodeID(v)) != sources[fwd.Source].NextHop(NodeID(v)) {
							t.Fatalf("source tree %d: hop toward %d differs from its one-shot", fwd.Source, v)
						}
					}
				}
			}
			if (tied > 0) != tc.tied {
				t.Fatalf("%d tied nodes in complete sink trees, want some: %v", tied, tc.tied)
			}
			if tc.name == "grid" && tiedBelow == 0 {
				t.Fatal("no untied grid node has a tie further down its sink path")
			}
		})
	}
}

// TestSinkTieMarks pins the two ways a sink run marks a tie, each on a
// capture where the unmarked sink hop would be wrong. On the rounding
// capture the mark comes from ε: with ε = 0 the sink hop at 0 is untied
// and differs from the source tree's. On the zero-cost capture it comes
// from node 2's zero-cost out-link.
func TestSinkTieMarks(t *testing.T) {
	for _, tc := range []struct {
		name          string
		g             *Graph
		at, dst       NodeID
		sinkHop, want NodeID
		eps0          bool // whether ε = 0 alone loses the mark
	}{
		{"rounding", roundingGraph(), 0, 5, 3, 1, true},
		{"zero-cost", zeroCostGraph(), 2, 3, 3, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ov CostOverlay
			tc.g.CaptureInto(&ov, func(li int) float64 { return tc.g.Link(li).Cost })
			if got := oneShot(&ov, tc.at).NextHop(tc.dst); got != tc.want {
				t.Fatalf("source tree hop %d→%d = %d, want %d", tc.at, tc.dst, got, tc.want)
			}
			sink := &SPT{}
			ov.StartSinkInto(sink, tc.dst)
			ov.SettleUntil(&SPTScratch{}, sink, -1)
			if hop, tied := sink.SinkHop(tc.at); hop != tc.sinkHop || !tied {
				t.Fatalf("sink hop %d→%d = %d, tied %v; want %d, tied", tc.at, tc.dst, hop, tied, tc.sinkHop)
			}
			ov.eps = 0
			ov.StartSinkInto(sink, tc.dst)
			ov.SettleUntil(&SPTScratch{}, sink, -1)
			if _, tied := sink.SinkHop(tc.at); tied == tc.eps0 {
				t.Fatalf("with ε = 0 the hop at %d is tied: %v", tc.at, tied)
			}
		})
	}
}

// directCapture is the out-link capture as it was before sink trees:
// one pass over every node's adjacency. It is the reference for the
// out-link CSR a capture's first StartInto builds from its in-links.
func directCapture(g *Graph, costOf func(li int) float64) *CostOverlay {
	o := &CostOverlay{n: g.n, start: make([]int32, g.n+1), fwd: true}
	for u := 0; u < g.n; u++ {
		o.start[u] = int32(len(o.to))
		for _, li := range g.adj[u] {
			if l := &g.link[li]; l.Up {
				o.to = append(o.to, int32(l.To))
				o.cost = append(o.cost, costOf(int(li)))
			}
		}
	}
	o.start[g.n] = int32(len(o.to))
	return o
}

// TestForwardCSRMatchesDirectCapture rebuilds one capture over churned
// graphs with zero-cost and parallel links, and requires the out-link
// CSR built from its in-links to equal a direct capture entry for entry
// — every node's out-links in adjacency order — and every source tree,
// complete or partial, to be identical on both. With zero costs the
// trees' ties depend on that order, so a fallback tree is byte-identical
// to one over a direct capture only if the order survives.
func TestForwardCSRMatchesDirectCapture(t *testing.T) {
	rng := sim.NewRNG(17)
	var ov CostOverlay
	sc := &SPTScratch{}
	for trial := 0; trial < 6; trial++ {
		g := zeroCostWaxman(rng)
		for k := 0; k < 4; k++ {
			g.SetUp(rng.Intn(g.Links()), false)
		}
		costOf := func(li int) float64 { return g.Link(li).Cost }
		g.CaptureInto(&ov, costOf)
		ref := directCapture(g, costOf)
		ov.StartInto(&SPT{}, 0)
		if !slices.Equal(ov.start, ref.start) || !slices.Equal(ov.to, ref.to) || !slices.Equal(ov.cost, ref.cost) {
			t.Fatalf("trial %d: out-link CSR differs from a direct capture", trial)
		}
		for s := 0; s < g.N(); s++ {
			src := NodeID(s)
			expectSameTree(t, "complete source run", oneShot(&ov, src), oneShot(ref, src))
			dst := NodeID(rng.Intn(g.N()))
			got, want := &SPT{}, &SPT{}
			ov.StartInto(got, src)
			ov.SettleUntil(sc, got, dst)
			ref.StartInto(want, src)
			ref.SettleUntil(sc, want, dst)
			expectSameTree(t, "partial source run", got, want)
		}
	}
}
