package topo

import (
	"slices"
	"sort"
	"testing"
	"viator/internal/allocpin"

	"viator/internal/sim"
)

// This file retains the map-based Connected and Components verbatim as
// oracles for the flood kernel: Reachable's map sets, a reversed clone
// for the strong-connectivity check and an undirected clone for the
// components. The rewrite must agree with them on every graph — the
// mobility partition count and the catalog's Waxman stitching ride on
// these answers.

// Reachable returns the set of nodes reachable from src over up links
// (including src), via BFS.
func (g *Graph) Reachable(src NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{src: true}
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, li := range g.adj[u] {
			l := g.link[li]
			if l.Up && !seen[l.To] {
				seen[l.To] = true
				queue = append(queue, l.To)
			}
		}
	}
	return seen
}

func referenceConnected(g *Graph) bool {
	if g.n == 0 {
		return true
	}
	if len(g.Reachable(0)) != g.n {
		return false
	}
	// For directed graphs also check the reverse orientation.
	rev := New()
	rev.AddNodes(g.n)
	for _, l := range g.link {
		if l.Up {
			rev.Connect(l.To, l.From, l.Cost)
		}
	}
	return len(rev.Reachable(0)) == g.n
}

func referenceComponents(g *Graph) [][]NodeID {
	und := New()
	und.AddNodes(g.n)
	for _, l := range g.link {
		if l.Up {
			und.Connect(l.From, l.To, 1)
			und.Connect(l.To, l.From, 1)
		}
	}
	seen := make([]bool, g.n)
	var comps [][]NodeID
	for i := 0; i < g.n; i++ {
		if seen[i] {
			continue
		}
		var comp []NodeID
		for id := range und.Reachable(NodeID(i)) {
			if !seen[id] {
				seen[id] = true
				comp = append(comp, id)
			}
		}
		sort.Slice(comp, func(a, b int) bool { return comp[a] < comp[b] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })
	return comps
}

// randomDirected builds a graph of one of three shapes: sparse one-way
// links, a directed cycle with extra one-way chords, or two-way links.
// A random share of its links is then taken down, so every shape
// exercises down links, and the cycles are often strongly connected,
// often reachable one way only.
func randomDirected(rng *sim.RNG) *Graph {
	g := New()
	n := 1 + rng.Intn(24)
	g.AddNodes(n)
	shape := rng.Intn(3)
	if shape == 1 && n > 1 {
		for i := 0; i < n; i++ {
			g.Connect(NodeID(i), NodeID((i+1)%n), 1)
		}
	}
	for k := rng.Intn(2 * n); k > 0; k-- {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		if shape == 2 {
			g.ConnectBoth(a, b, 1)
		} else {
			g.Connect(a, b, 1)
		}
	}
	if g.Links() > 0 {
		for k := rng.Intn(3); k > 0; k-- {
			g.SetUp(rng.Intn(g.Links()), false)
		}
	}
	return g
}

// TestConnectedComponentsMatchReference checks the flood kernel against
// the map-based oracles over random directed graphs with down and
// one-way links, and requires both answers of Connected to occur.
func TestConnectedComponentsMatchReference(t *testing.T) {
	rng := sim.NewRNG(17)
	seen := map[bool]int{}
	for trial := 0; trial < 600; trial++ {
		g := randomDirected(rng)
		want := referenceConnected(g)
		if got := g.Connected(); got != want {
			t.Fatalf("trial %d: Connected = %v, reference %v\n%s", trial, got, want, g.DOT("g", nil))
		}
		seen[want]++
		if got, want := g.Components(), referenceComponents(g); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("trial %d: Components = %v, reference %v", trial, got, want)
		}
	}
	if seen[true] < 50 || seen[false] < 50 {
		t.Fatalf("connected/disconnected trials = %d/%d: the generator must produce both", seen[true], seen[false])
	}
}

// TestConnectedOneWay pins the reverse pass: every node is reachable
// from node 0 along a one-way path, but node 0 is reachable from no one.
func TestConnectedOneWay(t *testing.T) {
	g := Line(4)
	for i := 0; i < g.Links(); i++ {
		if l := g.Link(i); l.From > l.To {
			g.SetUp(i, false)
		}
	}
	if len(g.Reachable(0)) != g.N() {
		t.Fatal("the forward path must reach every node")
	}
	if g.Connected() || referenceConnected(g) {
		t.Fatal("one-way line reported strongly connected")
	}
	if comps := g.Components(); len(comps) != 1 {
		t.Fatalf("one-way line components = %v, want one weak component", comps)
	}
}

// TestConnectedAllocations pins the partition probe's allocations at a
// small constant — the visited set, the queue and the in-link CSR —
// however many nodes and links the graph has.
func TestConnectedAllocations(t *testing.T) {
	for _, g := range []*Graph{Grid(4, 4), Grid(30, 30)} {
		if !g.Connected() {
			t.Fatal("grid disconnected")
		}
		allocpin.Max(t, 20, 4, func() { g.Connected() })
	}
}
