package topo

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"viator/internal/sim"
)

func TestAddAndConnect(t *testing.T) {
	g := New()
	a := g.AddNode()
	b := g.AddNode()
	if g.N() != 2 {
		t.Fatalf("n=%d", g.N())
	}
	li := g.Connect(a, b, 2.5)
	l := g.Link(li)
	if l.From != a || l.To != b || l.Cost != 2.5 || !l.Up {
		t.Fatalf("link = %+v", l)
	}
	if nb := g.Neighbors(a); len(nb) != 1 || nb[0] != b {
		t.Fatalf("neighbors = %v", nb)
	}
	if len(g.Neighbors(b)) != 0 {
		t.Fatal("directed link leaked backwards")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New()
	a := g.AddNode()
	g.Connect(a, a, 1)
}

func TestLinkDownHidesNeighbor(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	li := g.Connect(a, b, 1)
	g.SetUp(li, false)
	if len(g.Neighbors(a)) != 0 || g.Degree(a) != 0 {
		t.Fatal("down link still visible")
	}
	if g.FindLink(a, b) != -1 {
		t.Fatal("FindLink saw down link")
	}
	g.SetUp(li, true)
	if g.FindLink(a, b) != li {
		t.Fatal("restored link not found")
	}
}

func TestDijkstraRing(t *testing.T) {
	g := Ring(8)
	spt := g.ComputeInto(nil, nil, 0)
	if spt.Dist[4] != 4 {
		t.Fatalf("antipode dist = %v", spt.Dist[4])
	}
	if spt.Dist[1] != 1 || spt.Dist[7] != 1 {
		t.Fatalf("adjacent dists %v %v", spt.Dist[1], spt.Dist[7])
	}
	p := spt.PathTo(3)
	if len(p) != 4 || p[0] != 0 || p[3] != 3 {
		t.Fatalf("path = %v", p)
	}
	if spt.NextHop(3) != 1 {
		t.Fatalf("next hop = %v", spt.NextHop(3))
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New()
	g.AddNodes(3)
	g.Connect(0, 1, 1)
	spt := g.ComputeInto(nil, nil, 0)
	if !math.IsInf(spt.Dist[2], 1) {
		t.Fatal("unreachable node has finite dist")
	}
	if spt.PathTo(2) != nil {
		t.Fatal("path to unreachable node")
	}
	if spt.NextHop(2) != -1 {
		t.Fatal("next hop to unreachable node")
	}
}

func TestDijkstraPicksCheaperLongerPath(t *testing.T) {
	g := New()
	g.AddNodes(3)
	g.Connect(0, 2, 10)
	g.Connect(0, 1, 1)
	g.Connect(1, 2, 1)
	spt := g.ComputeInto(nil, nil, 0)
	if spt.Dist[2] != 2 {
		t.Fatalf("dist = %v", spt.Dist[2])
	}
	if p := spt.PathTo(2); len(p) != 3 {
		t.Fatalf("path = %v", p)
	}
}

func TestDijkstraRespectsDownLinks(t *testing.T) {
	g := New()
	g.AddNodes(3)
	g.Connect(0, 1, 1)
	li := g.Connect(1, 2, 1)
	g.SetUp(li, false)
	spt := g.ComputeInto(nil, nil, 0)
	if !math.IsInf(spt.Dist[2], 1) {
		t.Fatal("routed over down link")
	}
}

func TestConnected(t *testing.T) {
	if !Ring(5).Connected() {
		t.Fatal("ring should be connected")
	}
	g := New()
	g.AddNodes(2)
	if g.Connected() {
		t.Fatal("two isolated nodes reported connected")
	}
	// One-directional edge is not strongly connected.
	g.Connect(0, 1, 1)
	if g.Connected() {
		t.Fatal("one-way pair reported connected")
	}
	g.Connect(1, 0, 1)
	if !g.Connected() {
		t.Fatal("two-way pair reported disconnected")
	}
}

func TestComponents(t *testing.T) {
	g := New()
	g.AddNodes(5)
	g.ConnectBoth(0, 1, 1)
	g.ConnectBoth(2, 3, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 2 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("components = %v", comps)
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("n=%d", g.N())
	}
	// Interior node degree 4, corner degree 2.
	if g.Degree(5) != 4 { // row 1 col 1
		t.Fatalf("interior degree = %d", g.Degree(5))
	}
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
	if !g.Connected() {
		t.Fatal("grid disconnected")
	}
}

func TestLineAndStar(t *testing.T) {
	l := Line(5)
	if l.Degree(0) != 1 || l.Degree(2) != 2 || !l.Connected() {
		t.Fatal("line malformed")
	}
	s := Star(6)
	if s.Degree(0) != 5 || s.Degree(3) != 1 || !s.Connected() {
		t.Fatal("star malformed")
	}
}

func TestRandomGeometricRadius(t *testing.T) {
	rng := sim.NewRNG(1)
	g := RandomGeometric(30, 10, 3, rng)
	for i := 0; i < g.Links(); i++ {
		l := g.Link(i)
		d := g.Pos(l.From).Dist(g.Pos(l.To))
		if d > 3 {
			t.Fatalf("link longer than radius: %v", d)
		}
		if math.Abs(l.Cost-d) > 1e-9 {
			t.Fatalf("cost != distance")
		}
	}
}

func TestConnectedWaxmanAlwaysConnected(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := ConnectedWaxman(24, 0.25, 0.2, sim.NewRNG(seed))
		if !g.Connected() {
			t.Fatalf("seed %d disconnected", seed)
		}
	}
}

func TestPaperFigureShape(t *testing.T) {
	g := PaperFigure()
	if g.N() != 6 {
		t.Fatalf("n=%d", g.N())
	}
	if g.Links() != 16 { // 8 bidirectional
		t.Fatalf("links=%d", g.Links())
	}
	if !g.Connected() {
		t.Fatal("paper figure disconnected")
	}
	// N3 (ID 2) is the articulation-rich center with degree 4.
	if g.Degree(2) != 4 {
		t.Fatalf("N3 degree = %d", g.Degree(2))
	}
}

func TestCloneIsolation(t *testing.T) {
	g := Ring(4)
	c := g.Clone()
	g.SetUp(0, false)
	if !c.Link(0).Up {
		t.Fatal("clone shares link state")
	}
	c.AddNode()
	if g.N() == c.N() {
		t.Fatal("clone shares node count")
	}
}

func TestDOT(t *testing.T) {
	g := Line(2)
	dot := g.DOT("g", func(id NodeID) string { return "x" })
	if !strings.Contains(dot, "digraph g") || !strings.Contains(dot, `label="x"`) {
		t.Fatalf("dot output:\n%s", dot)
	}
	if !strings.Contains(dot, "n0 -> n1") {
		t.Fatalf("missing edge:\n%s", dot)
	}
}

func TestDijkstraTriangleInequality(t *testing.T) {
	// Property: for random geometric graphs, dist(a,c) <= dist(a,b)+dist(b,c).
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		g := RandomGeometric(15, 5, 2.5, rng)
		sptA := g.ComputeInto(nil, nil, 0)
		for b := 1; b < g.N(); b++ {
			if math.IsInf(sptA.Dist[b], 1) {
				continue
			}
			sptB := g.ComputeInto(nil, nil, NodeID(b))
			for c := 0; c < g.N(); c++ {
				if math.IsInf(sptB.Dist[c], 1) || math.IsInf(sptA.Dist[c], 1) {
					continue
				}
				if sptA.Dist[c] > sptA.Dist[b]+sptB.Dist[c]+1e-9 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestReachableIncludesSource(t *testing.T) {
	g := New()
	g.AddNode()
	r := g.Reachable(0)
	if !r[0] || len(r) != 1 {
		t.Fatalf("reachable = %v", r)
	}
}

func TestBetweennessStar(t *testing.T) {
	g := Star(6)
	cb := g.Betweenness()
	// Hub carries every leaf-to-leaf shortest path.
	if g.MostCentral() != 0 {
		t.Fatalf("most central = %d", g.MostCentral())
	}
	for i := 1; i < 6; i++ {
		if cb[i] != 0 {
			t.Fatalf("leaf %d betweenness = %v", i, cb[i])
		}
	}
	// Hub: paths between 5 leaves = 5*4 = 20 ordered pairs.
	if cb[0] != 20 {
		t.Fatalf("hub betweenness = %v", cb[0])
	}
}

func TestBetweennessLine(t *testing.T) {
	g := Line(5)
	cb := g.Betweenness()
	// The middle node dominates; symmetric about it.
	if g.MostCentral() != 2 {
		t.Fatalf("most central = %d (%v)", g.MostCentral(), cb)
	}
	if cb[0] != 0 || cb[4] != 0 {
		t.Fatalf("endpoints nonzero: %v", cb)
	}
	if cb[1] != cb[3] {
		t.Fatalf("asymmetric: %v", cb)
	}
}

func TestBetweennessPaperFigure(t *testing.T) {
	// N3 (id 2) is the articulation-rich center of the figure topology.
	g := PaperFigure()
	if g.MostCentral() != 2 {
		t.Fatalf("most central = %d (%v)", g.MostCentral(), g.Betweenness())
	}
}

func TestBetweennessIgnoresDownLinks(t *testing.T) {
	g := Line(3)
	cb1 := g.Betweenness()
	if cb1[1] == 0 {
		t.Fatal("middle node should carry paths")
	}
	// Cut the line: no multi-hop paths remain.
	g.SetUp(g.FindLink(1, 2), false)
	g.SetUp(g.FindLink(2, 1), false)
	cb2 := g.Betweenness()
	if cb2[1] != 0 {
		t.Fatalf("betweenness over dead link: %v", cb2)
	}
}

func TestLinkBetween(t *testing.T) {
	g := New()
	g.AddNodes(3)
	ab := g.Connect(0, 1, 2)
	g.Connect(1, 2, 1)
	// Found regardless of up/down state — unlike FindLink.
	if got := g.LinkBetween(0, 1); got != ab {
		t.Fatalf("LinkBetween(0,1) = %d, want %d", got, ab)
	}
	g.SetUp(ab, false)
	if got := g.LinkBetween(0, 1); got != ab {
		t.Fatalf("LinkBetween(0,1) after down = %d, want %d", got, ab)
	}
	if g.FindLink(0, 1) != -1 {
		t.Fatal("FindLink saw a down link")
	}
	// Absent pairs and the reverse orientation are -1.
	if g.LinkBetween(1, 0) != -1 || g.LinkBetween(0, 2) != -1 {
		t.Fatal("phantom link found")
	}
	// Parallel edges resolve to the first inserted, mirroring the
	// insertion-order adjacency scan this index replaced.
	dup := g.Connect(0, 1, 9)
	if dup == ab {
		t.Fatal("Connect reused an index")
	}
	if got := g.LinkBetween(0, 1); got != ab {
		t.Fatalf("parallel edge shadowed the first: got %d, want %d", got, ab)
	}
}

func TestLinkBetweenCloneIsolation(t *testing.T) {
	g := New()
	g.AddNodes(2)
	ab := g.Connect(0, 1, 1)
	c := g.Clone()
	if c.LinkBetween(0, 1) != ab {
		t.Fatal("clone lost the link index")
	}
	// New links in the clone must not leak into the original's index.
	c.Connect(1, 0, 1)
	if g.LinkBetween(1, 0) != -1 {
		t.Fatal("clone mutation visible through original's index")
	}
}

func TestLinkBetweenMatchesAdjacencyScan(t *testing.T) {
	rng := sim.NewRNG(77)
	g := ConnectedWaxman(40, 0.4, 0.3, rng)
	for from := 0; from < g.N(); from++ {
		for to := 0; to < g.N(); to++ {
			if from == to {
				continue
			}
			want := -1
			for _, li := range g.adj[from] {
				if g.Link(li).To == NodeID(to) {
					want = li
					break
				}
			}
			if got := g.LinkBetween(NodeID(from), NodeID(to)); got != want {
				t.Fatalf("LinkBetween(%d,%d) = %d, scan found %d", from, to, got, want)
			}
		}
	}
}
