package routing

import (
	"slices"
	"testing"
	"viator/internal/allocpin"

	"viator/internal/sim"
	"viator/internal/topo"
)

// TestTeardownDefaultOverlayGuarded is the regression test for the
// nil-table crash: tearing down the default "" overlay used to succeed,
// after which any route on an unknown overlay indexed a nil fallback
// table and panicked. The default overlay is now permanent.
func TestTeardownDefaultOverlayGuarded(t *testing.T) {
	g := topo.Line(3)
	a := NewAdaptive(g, 2)
	a.SpawnOverlay("qos", 3)
	a.TeardownOverlay(DefaultOverlay) // refused: "" is the universal fallback
	if names := a.Overlays(); len(names) != 2 || names[0] != DefaultOverlay {
		t.Fatalf("overlays after default teardown = %v", names)
	}
	a.TeardownOverlay("qos")
	// Both of these crashed before the guard.
	if hop := a.NextHop("qos", 0, 2); hop != 1 {
		t.Fatalf("fallback NextHop = %d, want 1", hop)
	}
	if p := walk(t, a, "nosuch", 0, 2); !slices.Equal(p, []topo.NodeID{0, 1, 2}) {
		t.Fatalf("fallback walk = %v, want [0 1 2]", p)
	}
	if hop := a.NextHop(DefaultOverlay, 0, 2); hop != 1 {
		t.Fatalf("default NextHop = %d, want 1", hop)
	}
}

// TestPulseGateSkipsUnchangedInputs pins the incremental-pulse contract:
// a pulse recomputes only when topology version, utilization estimates or
// the congestion weight moved since the last one.
func TestPulseGateSkipsUnchangedInputs(t *testing.T) {
	g := topo.Grid(3, 3)
	a := NewAdaptive(g, 2)
	a.Pulse() // no fingerprint yet: recomputes
	a.Pulse()
	a.Pulse()
	if a.Pulses != 3 || a.Recomputes != 1 || a.SkippedPulses != 2 {
		t.Fatalf("pulses=%d recomputes=%d skipped=%d", a.Pulses, a.Recomputes, a.SkippedPulses)
	}
	check := func(want int, why string) {
		t.Helper()
		a.Pulse()
		if a.Recomputes != want {
			t.Fatalf("%s: recomputes = %d, want %d", why, a.Recomputes, want)
		}
	}
	a.ObserveUtilization(0, 0.5)
	check(2, "fresh utilization")
	check(2, "utilization unchanged since")
	g.SetUp(0, false)
	check(3, "link down bumps version")
	g.SetUp(0, false) // no-op write: no version bump
	check(3, "no-op SetUp")
	g.SetCost(1, 9)
	check(4, "cost change bumps version")
	a.CongestionWeight = 7
	check(5, "congestion weight change")
	// Routing still reflects the current state after all the gating.
	if hop := a.NextHop("", 0, 8); hop == -1 {
		t.Fatal("no route through churned grid")
	}
}

// walk follows a's next hops on an overlay from src until dst and
// returns the nodes it visits, src and dst included, or nil when a hop
// has no route. A walk longer than the node count is a forwarding loop
// and fails the test.
func walk(t *testing.T, a *Adaptive, overlay string, src, dst topo.NodeID) []topo.NodeID {
	t.Helper()
	p := []topo.NodeID{src}
	for v := src; v != dst; {
		if v = a.NextHop(overlay, v, dst); v == -1 {
			return nil
		}
		if p = append(p, v); len(p) > a.g.N() {
			t.Fatalf("forwarding loop from %d toward %d: %v", src, dst, p)
		}
	}
	return p
}

// oneShot builds src's complete tree in one run over an independent
// capture of a's graph at the given overlay bias — the reference every
// lazily built, partially settled tree of a must agree with.
func oneShot(a *Adaptive, bias float64, src topo.NodeID) *topo.SPT {
	var ov topo.CostOverlay
	a.g.CaptureInto(&ov, func(li int) float64 { return a.effectiveCost(li, bias) })
	t := &topo.SPT{}
	ov.StartInto(t, src)
	ov.SettleUntil(&topo.SPTScratch{}, t, -1)
	return t
}

// roundingGraph is a hand-built capture whose two paths 0→5 tie in
// exact arithmetic, 2.4+2.3+3.1 = 1.0+3.9+2.9, but round apart by two
// ulps between the source run's summation order and the sink run's: a
// source tree at 0 prefers the first path (first hop 1), a sink tree at
// 5 the second (first hop 3). Only the tie mark at 0 keeps the sink
// answer from being the wrong hop.
func roundingGraph() *topo.Graph {
	g := topo.New()
	g.AddNodes(6)
	for _, l := range []struct {
		a, b topo.NodeID
		c    float64
	}{{0, 1, 2.4}, {1, 2, 2.3}, {2, 5, 3.1}, {0, 3, 1.0}, {3, 4, 3.9}, {4, 5, 2.9}} {
		g.ConnectBoth(l.a, l.b, l.c)
	}
	return g
}

// TestLazyMatchesOneShot is the router's all-pairs oracle. On a Waxman
// graph, a random-geometric graph, a unit-cost grid (ties everywhere)
// and the rounding capture, it drives a mutation/feedback script through
// a lazy router with three overlays, leaving sink trees partial in every
// epoch, and requires every routing decision to equal a one-shot source
// tree over an independent capture at the overlay's bias. The first
// checks resume a sink tree the script left partial; then all pairs on
// every overlay. The grid's and the rounding capture's ties must reach
// the source-tree fallback.
func TestLazyMatchesOneShot(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *topo.Graph
		fallback bool
	}{
		{"waxman", topo.ConnectedWaxman(40, 0.4, 0.3, sim.NewRNG(11)), false},
		{"geometric", topo.RandomGeometric(60, 100, 25, sim.NewRNG(12)), false},
		{"grid", topo.Grid(6, 6), true},
		{"rounding", roundingGraph(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			a := NewAdaptive(g, 3)
			a.SpawnOverlay("qos", 4)
			a.SpawnOverlay("bulk", 0)
			r := sim.NewRNG(7)
			node := func() topo.NodeID { return topo.NodeID(r.Intn(g.N())) }
			mutate := tc.name != "rounding" // keep its exact costs and paths
			for round := 0; round < 4; round++ {
				for k := 0; mutate && k < 8; k++ {
					a.ObserveUtilization(r.Intn(g.Links()), r.Float64())
				}
				if mutate && round == 2 {
					g.SetUp(r.Intn(g.Links()), false)
				}
				a.Pulse()
				// Leave a few sink trees partial: each settles only as far
				// as a node next to its destination.
				for k := 0; k < 3; k++ {
					if dst := node(); len(g.Neighbors(dst)) > 0 {
						a.NextHop("qos", g.Neighbors(dst)[0], dst)
					}
				}
				a.NextHop("qos", node(), node())
				a.NextHop("", g.Neighbors(0)[0], 0)
			}
			// The router must really hold a partial sink tree toward 0, or
			// the checks below would read a complete tree.
			partial := a.overlays[DefaultOverlay].sinks.byRoot[0]
			far := topo.NodeID(-1)
			for v := g.N() - 1; v > 0; v-- {
				if !partial.Settled(topo.NodeID(v)) {
					far = topo.NodeID(v)
					break
				}
			}
			if far == -1 {
				t.Fatal("sink tree toward 0 is complete; the script must leave it partial")
			}
			for _, src := range []topo.NodeID{far, g.Neighbors(0)[0], topo.NodeID(g.N() / 2)} {
				if got, want := a.NextHop("", src, 0), oneShot(a, 1, src).NextHop(0); got != want {
					t.Fatalf("hop %d→0 = %d, one-shot %d", src, got, want)
				}
			}
			for _, ov := range []struct {
				name string
				bias float64
			}{{"", 1}, {"qos", 4}, {"bulk", 0}} {
				for src := 0; src < g.N(); src++ {
					s := topo.NodeID(src)
					want := oneShot(a, ov.bias, s)
					for dst := 0; dst < g.N(); dst++ {
						d := topo.NodeID(dst)
						if got, want := a.NextHop(ov.name, s, d), want.NextHop(d); s != d && got != want {
							t.Fatalf("overlay=%q: hop %d→%d = %d, one-shot %d", ov.name, src, dst, got, want)
						}
					}
				}
			}
			if fell := a.TieFallbacks > 0; fell != tc.fallback {
				t.Fatalf("tie fallbacks = %d, want some: %v", a.TieFallbacks, tc.fallback)
			}
		})
	}
}

// TestPulseResetsPartialFrontier is the regression test for a stale
// frontier: a tree left partial in one epoch and invalidated by a pulse
// must not resume the old epoch's pending heap on its next query — here
// one for an unreachable destination, which restarts the tree lazily and
// drains whatever frontier it then holds. Every route must then match a
// router that never saw the partial tree.
func TestPulseResetsPartialFrontier(t *testing.T) {
	build := func() (*Adaptive, *topo.Graph, topo.NodeID) {
		g := topo.Grid(5, 5)
		iso := g.AddNode() // no links: unreachable from everywhere
		return NewAdaptive(g, 2), g, iso
	}
	a, g, iso := build()
	a.NextHop("", 0, 1) // partial: only the nodes next to 1 settled
	if a.overlays[DefaultOverlay].sinks.byRoot[1].Settled(24) {
		t.Fatal("sink tree queried from a neighbor settled the far corner")
	}
	ref, refG, _ := build()
	for _, h := range []*topo.Graph{g, refG} {
		h.SetCost(h.FindLink(0, 1), 5) // the old frontier's costs are now wrong
	}
	for _, r := range []*Adaptive{a, ref} {
		r.ObserveUtilization(2, 0.9)
		r.Pulse()
	}
	if hop := a.NextHop("", 0, iso); hop != -1 {
		t.Fatalf("hop toward isolated node = %d, want -1", hop)
	}
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			s, d := topo.NodeID(src), topo.NodeID(dst)
			if got, want := a.NextHop("", s, d), ref.NextHop("", s, d); got != want {
				t.Fatalf("hop %d→%d = %d, fresh router %d", src, dst, got, want)
			}
		}
	}
	if got, want := walk(t, a, "", 0, 24), walk(t, ref, "", 0, 24); got == nil || !slices.Equal(got, want) {
		t.Fatalf("walk 0→24 = %v, fresh router %v", got, want)
	}
}

// TestPulseSeesAddedNodes is the regression test for the gate treating
// Version as a complete topology fingerprint: adding a node must reopen
// the gate, so the next pulse grows the tables and routes toward the new
// node resolve (or return -1) instead of indexing out of range.
func TestPulseSeesAddedNodes(t *testing.T) {
	g := topo.Line(3)
	a := NewAdaptive(g, 2)
	a.Pulse()
	n := g.AddNode()
	g.ConnectBoth(2, n, 1)
	a.Pulse() // must recapture: the node grew the topology
	if hop := a.NextHop("", 0, n); hop != 1 {
		t.Fatalf("hop toward added node = %d, want 1", hop)
	}
	// A node with no links yet is unreachable, not a panic.
	m := g.AddNode()
	a.Pulse()
	if hop := a.NextHop("", 0, m); hop != -1 {
		t.Fatalf("hop toward isolated node = %d, want -1", hop)
	}
	// Routing toward a node added after the last pulse — i.e. before the
	// capture knows it exists — is refused, not a panic, for src and dst
	// alike.
	w := g.AddNode()
	g.ConnectBoth(2, w, 1)
	if hop := a.NextHop("", 0, w); hop != -1 {
		t.Fatalf("pre-pulse hop toward new node = %d, want -1", hop)
	}
	if p := walk(t, a, "", 1, w); p != nil {
		t.Fatalf("pre-pulse walk from 1 toward new node = %v, want nil", p)
	}
	if hop := a.NextHop("", w, 0); hop != -1 {
		t.Fatalf("pre-pulse hop from new node = %d, want -1", hop)
	}
	a.Pulse()
	if hop := a.NextHop("", 0, w); hop != 1 {
		t.Fatalf("post-pulse hop toward new node = %d, want 1", hop)
	}
}

// TestAdaptiveNextHopAllocationFree pins the forwarding-path lookup —
// once per hop per packet — at 0 allocs/op on warm tables (the pin's
// warm-up run builds them).
func TestAdaptiveNextHopAllocationFree(t *testing.T) {
	g := topo.ConnectedWaxman(32, 0.4, 0.3, sim.NewRNG(3))
	a := NewAdaptive(g, 2)
	a.SpawnOverlay("qos", 3)
	a.Pulse()
	dst := topo.NodeID(g.N() - 1)
	allocpin.Zero(t, 200, func() {
		a.NextHop("", 0, dst)
		a.NextHop("qos", 1, dst)
		a.NextHop("nosuch", 2, dst) // fallback path included
	}, "(*Adaptive).NextHop")
}

// TestAdaptiveNextHopPartialAllocationFree pins NextHop at 0 allocs/op
// on cold trees that are restarted and settled only part-way every run:
// the restart, the bounded settle and the resumed settle toward a second
// destination all reuse the tree's memory, including the frontier it
// keeps. On the grid the queries from 0 are tied, so both tree kinds are
// pinned: each cycle restarts two sink trees and a source tree.
func TestAdaptiveNextHopPartialAllocationFree(t *testing.T) {
	g := topo.Grid(8, 8)
	iso := g.AddNode()
	a := NewAdaptive(g, 2)
	li := g.FindLink(0, 1)
	cost := []float64{1, 3}
	flip := 0
	cycle := func(dst topo.NodeID) {
		flip ^= 1
		g.SetCost(li, cost[flip])
		a.Pulse()
		a.NextHop("", 0, 9)
		a.NextHop("", 0, dst)
	}
	// Grow the trees and their frontiers to both cost states' full runs.
	cycle(iso)
	cycle(iso)
	sinks, sources := a.SinkBuilds, a.SourceBuilds
	allocpin.Zero(t, 100, func() { cycle(18) }, "(*Adaptive).NextHop")
	if a.SinkBuilds == sinks || a.SourceBuilds == sources {
		t.Fatalf("pinned cycle restarted %d sink and %d source trees; want both kinds",
			a.SinkBuilds-sinks, a.SourceBuilds-sources)
	}
	// The last cycle's source tree is nil when its cost state left 0
	// with one shortest first hop.
	o := a.overlays[DefaultOverlay]
	if src := o.sources.byRoot[0]; o.sinks.byRoot[18].Settled(63) || src != nil && src.Settled(63) {
		t.Fatal("pinned cycle settled the whole grid; the trees should stay partial")
	}
}

// TestAdaptiveRecyclesStaleTrees pins epoch-scoped trees: each epoch
// routes toward a disjoint set of m destinations and leaves some of
// their sink trees partial, yet no more than m trees are ever allocated,
// because every pulse hands the last epoch's trees to the next one.
// Every route must equal a fresh source tree over an independent
// capture, before and after an epoch that routes all pairs, whose
// complete trees are recycled the same way.
func TestAdaptiveRecyclesStaleTrees(t *testing.T) {
	const m = 4
	g := topo.ConnectedWaxman(40, 0.4, 0.3, sim.NewRNG(5))
	a := NewAdaptive(g, 3)
	o := a.overlays[DefaultOverlay]
	r := sim.NewRNG(9)
	trees := map[*topo.SPT]bool{}
	// check compares the routes from srcs toward dst with fresh one-shot
	// source trees.
	check := func(epoch int, dst topo.NodeID, srcs ...topo.NodeID) {
		t.Helper()
		for _, src := range srcs {
			if got, want := a.NextHop("", src, dst), oneShot(a, 1, src).NextHop(dst); src != dst && got != want {
				t.Fatalf("epoch %d: hop %d→%d = %d, fresh build %d", epoch, src, dst, got, want)
			}
		}
	}
	all := make([]topo.NodeID, g.N())
	for v := range all {
		all[v] = topo.NodeID(v)
	}
	pulse := func() {
		for k := 0; k < 6; k++ {
			a.ObserveUtilization(r.Intn(g.Links()), r.Float64())
		}
		a.Pulse()
	}
	epochs := g.N() / m
	for epoch := 0; epoch < epochs; epoch++ {
		pulse()
		for k := 0; k < m; k++ {
			dst := topo.NodeID(epoch*m + k)
			// Settle from one neighbor only: half the trees go into the
			// next pulse partial, frontier and all.
			check(epoch, dst, g.Neighbors(dst)[0])
			if k%2 == 0 {
				check(epoch, dst, all...)
			}
			trees[o.sinks.byRoot[dst]] = true
		}
		if len(trees) > m {
			t.Fatalf("epoch %d: %d distinct trees allocated, want at most %d", epoch, len(trees), m)
		}
	}
	pulse()
	for dst := range all {
		check(epochs, topo.NodeID(dst), all...)
	}
	pulse()
	for dst := 0; dst < g.N(); dst += 3 {
		check(epochs+1, topo.NodeID(dst), g.Neighbors(topo.NodeID(dst))[0], topo.NodeID(g.N()-1-dst))
	}
	// One sink tree per destination and epoch; no query is tied.
	if want := uint64(epochs*m + g.N() + (g.N()+2)/3); a.SinkBuilds != want || a.SourceBuilds != 0 || a.TieFallbacks != 0 {
		t.Fatalf("sink/source builds = %d/%d, fallbacks %d; want %d/0, 0",
			a.SinkBuilds, a.SourceBuilds, a.TieFallbacks, want)
	}
}

// TestLazyBuildsCountSparseTraffic checks that a post-invalidation pulse
// builds only the trees traffic actually touches: one sink tree per
// destination, whatever the number of sources routing toward it. On a
// geometric graph no query is tied, so no source tree is built; on a
// unit-cost grid the queries whose source has two shortest first hops
// fall back to source trees.
func TestLazyBuildsCountSparseTraffic(t *testing.T) {
	query := func(a *Adaptive, n int) {
		a.ObserveUtilization(0, 0.9)
		a.Pulse()
		a.NextHop("", 0, topo.NodeID(n-1))
		a.NextHop("", 7, topo.NodeID(n-1)) // same destination: tree reused
		a.NextHop("", 0, topo.NodeID(n/2))
		a.NextHop("", topo.NodeID(n-1), topo.NodeID(n/2))
	}
	t.Run("geometric", func(t *testing.T) {
		g := topo.ConnectedWaxman(30, 0.4, 0.3, sim.NewRNG(4))
		a := NewAdaptive(g, 2)
		query(a, g.N())
		if a.SinkBuilds != 2 || a.SourceBuilds != 0 || a.TieFallbacks != 0 {
			t.Fatalf("sink/source builds = %d/%d, fallbacks %d; want 2/0, 0",
				a.SinkBuilds, a.SourceBuilds, a.TieFallbacks)
		}
	})
	t.Run("grid", func(t *testing.T) {
		g := topo.Grid(5, 5)
		a := NewAdaptive(g, 2)
		query(a, g.N())
		if a.SinkBuilds != 2 || a.TieFallbacks == 0 || a.SourceBuilds == 0 {
			t.Fatalf("sink/source builds = %d/%d, fallbacks %d; want 2 sink trees and some fallbacks",
				a.SinkBuilds, a.SourceBuilds, a.TieFallbacks)
		}
	})
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
