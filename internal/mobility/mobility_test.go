package mobility

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"viator/internal/allocpin"

	"viator/internal/sim"
	"viator/internal/topo"
)

func inArena(pos []topo.Point, side float64) bool {
	for _, p := range pos {
		if p.X < -1e-9 || p.X > side+1e-9 || p.Y < -1e-9 || p.Y > side+1e-9 {
			return false
		}
	}
	return true
}

func TestRandomWaypointStaysInArena(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		m := NewRandomWaypoint(10, 100, 1, 5, 0.5, sim.NewRNG(seed))
		var pos []topo.Point
		for i := 0; i < 50; i++ {
			if pos = m.StepInto(pos, 1); !inArena(pos, 100) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWaypointMoves(t *testing.T) {
	m := NewRandomWaypoint(5, 100, 2, 2, 0, sim.NewRNG(1))
	before := append([]topo.Point(nil), m.Positions()...)
	m.StepInto(nil, 10)
	moved := 0
	for i, p := range m.Positions() {
		if p.Dist(before[i]) > 1 {
			moved++
		}
	}
	if moved < 4 {
		t.Fatalf("only %d of 5 nodes moved", moved)
	}
}

func TestRandomWaypointSpeedBound(t *testing.T) {
	m := NewRandomWaypoint(8, 1000, 1, 3, 0, sim.NewRNG(2))
	before := append([]topo.Point(nil), m.Positions()...)
	const dt = 5.0
	m.StepInto(nil, dt)
	for i, p := range m.Positions() {
		if d := p.Dist(before[i]); d > 3*dt+1e-6 {
			t.Fatalf("node %d moved %v > max speed*dt", i, d)
		}
	}
}

func TestRandomWaypointPause(t *testing.T) {
	// With an enormous pause, a node that reaches its destination stops.
	m := NewRandomWaypoint(1, 10, 100, 100, 1e9, sim.NewRNG(3))
	m.StepInto(nil, 1) // at speed 100 in a 10x10 arena the waypoint is surely reached
	p1 := m.Positions()[0]
	m.StepInto(nil, 5)
	p2 := m.Positions()[0]
	if p1.Dist(p2) > 1e-9 {
		t.Fatalf("node moved while paused: %v", p1.Dist(p2))
	}
}

func TestConnectivityRadius(t *testing.T) {
	g := topo.New()
	g.AddNodes(3)
	pos := []topo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 10, Y: 0}}
	var s ConnScratch
	up := s.RefreshInto(g, pos, 2)
	if up != 2 {
		t.Fatalf("up links = %d, want 2", up)
	}
	if g.FindLink(0, 1) == -1 || g.FindLink(1, 0) == -1 {
		t.Fatal("close pair not connected")
	}
	if g.FindLink(0, 2) != -1 {
		t.Fatal("far pair connected")
	}
}

func TestConnectivityReusesLinks(t *testing.T) {
	g := topo.New()
	g.AddNodes(2)
	pos := []topo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	var s ConnScratch
	s.RefreshInto(g, pos, 2)
	n1 := g.Links()
	// Move out of range and back; link table must not grow.
	s.RefreshInto(g, []topo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, 2)
	if g.FindLink(0, 1) != -1 {
		t.Fatal("out-of-range pair still linked")
	}
	s.RefreshInto(g, pos, 2)
	if g.Links() != n1 {
		t.Fatalf("link table grew: %d -> %d", n1, g.Links())
	}
	if g.FindLink(0, 1) == -1 {
		t.Fatal("link not restored")
	}
}

func TestConnectivityUpdatesCost(t *testing.T) {
	g := topo.New()
	g.AddNodes(2)
	var s ConnScratch
	s.RefreshInto(g, []topo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}, 5)
	li := g.FindLink(0, 1)
	if g.Link(li).Cost != 1 {
		t.Fatalf("cost = %v", g.Link(li).Cost)
	}
	s.RefreshInto(g, []topo.Point{{X: 0, Y: 0}, {X: 3, Y: 0}}, 5)
	if g.Link(li).Cost != 3 {
		t.Fatalf("cost not refreshed: %v", g.Link(li).Cost)
	}
}

// linksIdentical asserts two graphs have byte-for-byte identical link
// tables: same length, and same (From, To, Cost, Up) at every index —
// index equality is what pins link creation order, the determinism
// contract all three connectivity paths share.
func linksIdentical(t *testing.T, want, got *topo.Graph, label string) {
	t.Helper()
	if want.Links() != got.Links() {
		t.Fatalf("%s: %d links, oracle has %d", label, got.Links(), want.Links())
	}
	for i := 0; i < want.Links(); i++ {
		if want.Link(i) != got.Link(i) {
			t.Fatalf("%s: link %d = %+v, oracle %+v", label, i, got.Link(i), want.Link(i))
		}
	}
}

// adjacencyIdentical asserts two graphs with identical link tables also
// list each node's out-links in the same order: the up-link neighbour
// order routing walks, and the first link between every linked pair,
// up or down, that a refresh reuses.
func adjacencyIdentical(t *testing.T, want, got *topo.Graph, label string) {
	t.Helper()
	for v := 0; v < want.N(); v++ {
		id := topo.NodeID(v)
		if w, g := want.Neighbors(id), got.Neighbors(id); !slices.Equal(w, g) {
			t.Fatalf("%s: node %d out-links %v, oracle %v", label, v, g, w)
		}
	}
	for i := 0; i < want.Links(); i++ {
		l := want.Link(i)
		if w, g := want.LinkBetween(l.From, l.To), got.LinkBetween(l.From, l.To); w != g {
			t.Fatalf("%s: first link %d→%d is %d, oracle %d", label, l.From, l.To, g, w)
		}
	}
}

// snapshotLinks copies a graph's link table for change detection.
func snapshotLinks(g *topo.Graph) []topo.Link {
	out := make([]topo.Link, g.Links())
	for i := range out {
		out[i] = g.Link(i)
	}
	return out
}

func linksChanged(prev []topo.Link, g *topo.Graph) bool {
	if len(prev) != g.Links() {
		return true
	}
	for i := range prev {
		if prev[i] != g.Link(i) {
			return true
		}
	}
	return false
}

// stepper advances a set of node positions into a caller-owned buffer.
type stepper interface {
	StepInto(dst []topo.Point, dt float64) []topo.Point
}

// group is a dense, reference-point group fleet for the path-agreement
// test: every node holds a fixed offset of up to ±groupSpan per axis from
// a centre that a random-waypoint model drives, plus a small per-step
// jitter, so every node stays within about 30 of the centre and
// neighbourhoods stay dense while the group moves through the arena.
type group struct {
	centre *RandomWaypoint
	at     []topo.Point // the centre's position buffer
	off    []topo.Point
	rng    *sim.RNG
}

const groupSpan = 21.0

func newGroup(n int, side, speed float64, rng *sim.RNG) *group {
	m := &group{centre: NewRandomWaypoint(1, side, speed, speed, 0, rng), off: make([]topo.Point, n), rng: rng}
	for i := range m.off {
		m.off[i] = topo.Point{X: (rng.Float64()*2 - 1) * groupSpan, Y: (rng.Float64()*2 - 1) * groupSpan}
	}
	return m
}

func (m *group) StepInto(dst []topo.Point, dt float64) []topo.Point {
	m.at = m.centre.StepInto(m.at, dt)
	c := m.at[0]
	dst = dst[:0]
	for _, o := range m.off {
		jx := (m.rng.Float64()*2 - 1) * groupSpan * 0.1
		jy := (m.rng.Float64()*2 - 1) * groupSpan * 0.1
		dst = append(dst, topo.Point{X: c.X + o.X + jx, Y: c.Y + o.Y + jy})
	}
	return dst
}

// TestConnectivityPathsAgree property-tests the determinism contract:
// for a spread fleet and a clustered group, random radii and dozens of
// refreshes with range churn, the brute-force oracle, the full
// spatial-hash reconcile gridRefresh and the incremental RefreshInto
// produce identical link tables (set, cost, creation order), identical
// out-link order at every node and identical up-link counts; the two
// flap paths move Version identically, and the incremental path moves
// Version exactly when link state or costs actually changed.
func TestConnectivityPathsAgree(t *testing.T) {
	const n = 60
	models := []struct {
		name string
		mk   func(seed uint64) stepper
	}{
		{"waypoint", func(seed uint64) stepper { return NewRandomWaypoint(n, 120, 1, 8, 0.3, sim.NewRNG(seed)) }},
		{"group", func(seed uint64) stepper { return newGroup(n, 120, 5, sim.NewRNG(seed)) }},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				model := tc.mk(seed)
				radius := 8 + float64(seed*7) // 15..50: sparse through dense
				gOracle, gGrid, gInc := topo.New(), topo.New(), topo.New()
				gOracle.AddNodes(n)
				gGrid.AddNodes(n)
				gInc.AddNodes(n)
				var sGrid, sInc ConnScratch
				prev := snapshotLinks(gInc)
				var pos []topo.Point
				for step := 0; step < 30; step++ {
					pos = model.StepInto(pos, 0.8)
					r := radius
					if step%7 == 6 {
						r = radius * 1.5 // radio-range churn on top of motion
					}
					vO, vG, vI := gOracle.Version(), gGrid.Version(), gInc.Version()
					upO := Connectivity(gOracle, pos, r)
					upG := sGrid.gridRefresh(gGrid, pos, r)
					upI := sInc.RefreshInto(gInc, pos, r)
					if upO != upG || upO != upI {
						t.Fatalf("step %d: up counts oracle=%d grid=%d incremental=%d", step, upO, upG, upI)
					}
					linksIdentical(t, gOracle, gGrid, "grid")
					linksIdentical(t, gOracle, gInc, "incremental")
					adjacencyIdentical(t, gOracle, gGrid, "grid")
					adjacencyIdentical(t, gOracle, gInc, "incremental")
					if gOracle.Version()-vO != gGrid.Version()-vG {
						t.Fatalf("step %d: grid version moved %d, oracle %d",
							step, gGrid.Version()-vG, gOracle.Version()-vO)
					}
					moved := gInc.Version() != vI
					changed := linksChanged(prev, gInc)
					if moved != changed {
						t.Fatalf("step %d: incremental version moved=%v but link state changed=%v", step, moved, changed)
					}
					prev = snapshotLinks(gInc)
				}
			}
		})
	}
}

// TestRefreshIntoNoMotionVersionStable pins the pulse-gate contract: a
// refresh where nobody moved leaves Graph.Version untouched on the
// incremental path (the oracle, by design, flaps every link and moves it).
func TestRefreshIntoNoMotionVersionStable(t *testing.T) {
	const n = 40
	m := NewRandomWaypoint(n, 80, 1, 5, 0, sim.NewRNG(11))
	g := topo.New()
	g.AddNodes(n)
	var s ConnScratch
	pos := m.StepInto(nil, 1)
	up1 := s.RefreshInto(g, pos, 25)
	if up1 == 0 {
		t.Fatal("degenerate layout: no links")
	}
	v := g.Version()
	up2 := s.RefreshInto(g, pos, 25)
	if up2 != up1 {
		t.Fatalf("up count changed with no motion: %d -> %d", up1, up2)
	}
	if g.Version() != v {
		t.Fatalf("no-motion refresh moved Version %d -> %d", v, g.Version())
	}
	// The brute-force oracle flaps and therefore moves Version — the very
	// behavior the incremental path exists to avoid.
	og := topo.New()
	og.AddNodes(n)
	Connectivity(og, pos, 25)
	ov := og.Version()
	Connectivity(og, pos, 25)
	if og.Version() == ov {
		t.Fatal("oracle unexpectedly stopped flapping — update this pin")
	}
}

// TestRefreshIntoAllocFree pins the steady-state allocation contract of
// the mobility hot loop: once every pair's links exist and the scratch
// buffers have grown, StepInto + RefreshInto allocate nothing.
func TestRefreshIntoAllocFree(t *testing.T) {
	const n = 150
	m := NewRandomWaypoint(n, 100, 1, 6, 0, sim.NewRNG(21))
	g := topo.New()
	g.AddNodes(n)
	var s ConnScratch
	var pos []topo.Point
	// Warm up: a giant-radius refresh creates every pair's links once, so
	// steady-state refreshes only toggle and re-cost existing links.
	pos = m.StepInto(pos, 1)
	s.gridRefresh(g, pos, 1e9)
	s.RefreshInto(g, pos, 30)
	allocpin.Zero(t, 20, func() {
		pos = m.StepInto(pos, 0.5)
		s.RefreshInto(g, pos, 30)
	}, "(*RandomWaypoint).StepInto", "(*ConnScratch).RefreshInto")
}

// TestFirstRefreshAllocsFlat pins the one-step link table build: the
// first refresh of a graph with no links reserves the table and every
// adjacency once, so it allocates the same number of objects at 300
// nodes as at 3000. The scratch is unseeded but already grown, so the
// count is the graph's and the reservation's alone; growing the table
// one Connect at a time allocates in proportion to the node count.
func TestFirstRefreshAllocsFlat(t *testing.T) {
	const radius = 25.0
	allocs := func(n int) float64 {
		// Constant density: about 20 neighbours a node at both sizes.
		side := 10 * math.Sqrt(float64(n))
		pos := NewRandomWaypoint(n, side, 1, 5, 0, sim.NewRNG(7)).Positions()
		var s ConnScratch
		first := func() {
			g := topo.New()
			g.AddNodes(n)
			s.seeded = false
			s.RefreshInto(g, pos, radius)
		}
		first() // grow both neighbour-set buffers the refresh swaps between
		first()
		return testing.AllocsPerRun(5, first)
	}
	small, large := allocs(300), allocs(3000)
	if small != large {
		t.Fatalf("first refresh allocates %v objects at n=300 but %v at n=3000", small, large)
	}
}

func TestConnectivityDeterministicPartition(t *testing.T) {
	// Mobility + connectivity must be reproducible per seed.
	run := func() []int {
		m := NewRandomWaypoint(12, 50, 1, 4, 0, sim.NewRNG(55))
		g := topo.New()
		g.AddNodes(12)
		var s ConnScratch
		var pos []topo.Point
		var comps []int
		for i := 0; i < 20; i++ {
			pos = m.StepInto(pos, 1)
			s.RefreshInto(g, pos, 15)
			comps = append(comps, len(g.Components()))
		}
		return comps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic connectivity at step %d", i)
		}
	}
}
