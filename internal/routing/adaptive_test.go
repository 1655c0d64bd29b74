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

// TestLazyMatchesOneShot drives a mutation/feedback script through a
// lazy router with three overlays, leaving trees partial in every epoch,
// and requires every routing decision to equal a one-shot tree over an
// independent capture at the overlay's bias. NextHop is checked first on
// a source whose tree the script leaves partial, so the query resumes
// the run from its kept frontier; then all pairs on every overlay.
func TestLazyMatchesOneShot(t *testing.T) {
	g := topo.ConnectedWaxman(40, 0.4, 0.3, sim.NewRNG(11))
	a := NewAdaptive(g, 3)
	a.SpawnOverlay("qos", 4)
	a.SpawnOverlay("bulk", 0)
	// near is the source's first out-neighbor: settling toward it stops
	// long before the tree is complete.
	near := func(src topo.NodeID) topo.NodeID { return g.Neighbors(src)[0] }
	r := sim.NewRNG(7)
	for round := 0; round < 4; round++ {
		for k := 0; k < 8; k++ {
			a.ObserveUtilization(r.Intn(g.Links()), r.Float64())
		}
		if round == 2 {
			g.SetUp(r.Intn(g.Links()), false)
		}
		a.Pulse()
		// Leave a few trees partial.
		for k := 0; k < 3; k++ {
			src := topo.NodeID(r.Intn(g.N()))
			a.NextHop("qos", src, near(src))
		}
		a.NextHop("qos", topo.NodeID(r.Intn(g.N())), topo.NodeID(r.Intn(g.N())))
		a.NextHop("", topo.NodeID(round), near(topo.NodeID(round)))
	}
	// The router must really hold a partial tree for source 3 (settled by
	// round 3 toward a neighbor only), or the checks below would read a
	// complete tree.
	partial := a.overlays[DefaultOverlay].tables[3]
	far := topo.NodeID(-1)
	for v := 0; v < g.N(); v++ {
		if !partial.Settled(topo.NodeID(v)) {
			far = topo.NodeID(v)
			break
		}
	}
	if far == -1 {
		t.Fatal("tree for source 3 is complete; the script must leave it partial")
	}
	want3 := oneShot(a, 1, 3)
	for _, dst := range []topo.NodeID{near(3), far, 0, topo.NodeID(g.N() - 1)} {
		if got, want := a.NextHop("", 3, dst), want3.NextHop(dst); got != want {
			t.Fatalf("hop 3→%d = %d, one-shot %d", dst, got, want)
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
	a.NextHop("", 0, 1) // partial: only the source's corner settled
	if a.overlays[DefaultOverlay].tables[0].Settled(24) {
		t.Fatal("tree toward a neighbor settled the far corner")
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
// keeps.
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
	// Grow the tree and its frontier to both cost states' full runs.
	cycle(iso)
	cycle(iso)
	before := a.LazyBuilds
	allocpin.Zero(t, 100, func() { cycle(18) }, "(*Adaptive).NextHop")
	if a.LazyBuilds == before {
		t.Fatal("pinned cycle never restarted the tree")
	}
	if a.overlays[DefaultOverlay].tables[0].Settled(63) {
		t.Fatal("pinned cycle settled the whole grid; the tree should stay partial")
	}
}

// TestAdaptiveRecyclesStaleTrees pins epoch-scoped trees: each epoch
// routes from a disjoint set of m sources and leaves some of their trees
// partial, yet no more than m trees are ever allocated, because every
// pulse hands the last epoch's trees to the next one. Every route must
// equal a fresh build over an independent capture, before and after an
// epoch that routes all pairs, whose complete trees are recycled the
// same way.
func TestAdaptiveRecyclesStaleTrees(t *testing.T) {
	const m = 4
	g := topo.ConnectedWaxman(40, 0.4, 0.3, sim.NewRNG(5))
	a := NewAdaptive(g, 3)
	o := a.overlays[DefaultOverlay]
	r := sim.NewRNG(9)
	trees := map[*topo.SPT]bool{}
	// check compares src's routes toward dsts with a fresh one-shot build.
	check := func(epoch int, src topo.NodeID, dsts ...topo.NodeID) {
		t.Helper()
		want := oneShot(a, 1, src)
		for _, dst := range dsts {
			if got, want := a.NextHop("", src, dst), want.NextHop(dst); src != dst && got != want {
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
			src := topo.NodeID(epoch*m + k)
			// Settle toward one neighbor only: half the trees go into the
			// next pulse partial, frontier and all.
			check(epoch, src, g.Neighbors(src)[0])
			if k%2 == 0 {
				check(epoch, src, all...)
			}
			trees[o.tables[src]] = true
		}
		if len(trees) > m {
			t.Fatalf("epoch %d: %d distinct trees allocated, want at most %d", epoch, len(trees), m)
		}
	}
	pulse()
	for src := range all {
		check(epochs, topo.NodeID(src), all...)
	}
	pulse()
	for src := 0; src < g.N(); src += 3 {
		check(epochs+1, topo.NodeID(src), g.Neighbors(topo.NodeID(src))[0], topo.NodeID(g.N()-1-src))
	}
}

// TestLazyBuildsCountSparseTraffic checks that a post-invalidation pulse
// computes only the tables traffic actually touches.
func TestLazyBuildsCountSparseTraffic(t *testing.T) {
	g := topo.Grid(5, 5)
	a := NewAdaptive(g, 2)
	a.ObserveUtilization(0, 0.9)
	a.Pulse()
	before := a.LazyBuilds
	a.NextHop("", 0, 24)
	a.NextHop("", 0, 12) // same source: table reused
	a.NextHop("", 7, 24)
	if built := a.LazyBuilds - before; built != 2 {
		t.Fatalf("lazy builds = %d, want 2 (sources 0 and 7)", built)
	}
}
