package routing

import (
	"sort"
	"testing"

	"viator/internal/sim"
	"viator/internal/topo"
)

// Multicast support for the per-multicast-branch feedback dimension:
// "user-specific multicast services within the network reduce the load
// on the sensors and the network backbone" — a shortest-path multicast
// tree carries one copy per tree link instead of one per receiver.

// MulticastTree is a source-rooted distribution tree.
type MulticastTree struct {
	Source    topo.NodeID
	Receivers []topo.NodeID
	// Children maps a node to its downstream tree neighbors.
	Children map[topo.NodeID][]topo.NodeID
	// Links is the number of tree links (copies transmitted per packet).
	Links int
}

// BuildMulticastTree unions the shortest paths from src to every
// reachable receiver into a tree. Unreachable receivers are dropped from
// the Receivers list.
func BuildMulticastTree(g *topo.Graph, src topo.NodeID, receivers []topo.NodeID) *MulticastTree {
	spt := g.ComputeInto(nil, nil, src)
	tree := &MulticastTree{Source: src, Children: make(map[topo.NodeID][]topo.NodeID)}
	edge := make(map[[2]topo.NodeID]bool)
	for _, r := range receivers {
		path := spt.PathTo(r)
		if path == nil {
			continue
		}
		tree.Receivers = append(tree.Receivers, r)
		for i := 0; i+1 < len(path); i++ {
			e := [2]topo.NodeID{path[i], path[i+1]}
			if !edge[e] {
				edge[e] = true
				tree.Children[path[i]] = append(tree.Children[path[i]], path[i+1])
				tree.Links++
			}
		}
	}
	for _, kids := range tree.Children {
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
	}
	return tree
}

// UnicastCopies returns the total link transmissions needed to reach the
// tree's receivers with per-receiver unicast — the baseline the tree is
// measured against.
func (t *MulticastTree) UnicastCopies(g *topo.Graph) int {
	spt := g.ComputeInto(nil, nil, t.Source)
	total := 0
	for _, r := range t.Receivers {
		if p := spt.PathTo(r); p != nil {
			total += len(p) - 1
		}
	}
	return total
}

// Savings returns 1 - tree/unicast link transmissions, the per-branch
// dimension's bandwidth effect.
func (t *MulticastTree) Savings(g *topo.Graph) float64 {
	uni := t.UnicastCopies(g)
	if uni == 0 {
		return 0
	}
	return 1 - float64(t.Links)/float64(uni)
}

// FanOut walks the tree from a node, returning the next hops a packet
// copy must be sent to when it arrives there (the fission role's branch
// list at that node).
func (t *MulticastTree) FanOut(at topo.NodeID) []topo.NodeID {
	return append([]topo.NodeID(nil), t.Children[at]...)
}

func TestMulticastTreeOnStar(t *testing.T) {
	g := topo.Star(6) // hub 0, leaves 1..5
	tree := BuildMulticastTree(g, 1, []topo.NodeID{2, 3, 4, 5})
	// Paths 1-0-x: tree links = 1 (1→0) + 4 (0→x) = 5.
	if tree.Links != 5 {
		t.Fatalf("links = %d", tree.Links)
	}
	// Unicast: 4 receivers × 2 hops = 8.
	if uni := tree.UnicastCopies(g); uni != 8 {
		t.Fatalf("unicast = %d", uni)
	}
	if s := tree.Savings(g); s != 1-5.0/8.0 {
		t.Fatalf("savings = %v", s)
	}
	// Fan-out at the hub is all four leaves.
	if got := tree.FanOut(0); len(got) != 4 {
		t.Fatalf("hub fanout = %v", got)
	}
	if got := tree.FanOut(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("source fanout = %v", got)
	}
}

func TestMulticastLineNoSavings(t *testing.T) {
	// One receiver: the tree IS the unicast path.
	g := topo.Line(4)
	tree := BuildMulticastTree(g, 0, []topo.NodeID{3})
	if tree.Links != 3 || tree.Savings(g) != 0 {
		t.Fatalf("links=%d savings=%v", tree.Links, tree.Savings(g))
	}
}

func TestMulticastSharedPrefixSavings(t *testing.T) {
	// Line 0-1-2 with receivers 2 and 1: shared prefix 0→1.
	g := topo.Line(3)
	tree := BuildMulticastTree(g, 0, []topo.NodeID{1, 2})
	if tree.Links != 2 {
		t.Fatalf("links = %d", tree.Links)
	}
	if uni := tree.UnicastCopies(g); uni != 3 {
		t.Fatalf("unicast = %d", uni)
	}
}

func TestMulticastDropsUnreachable(t *testing.T) {
	g := topo.New()
	g.AddNodes(3)
	g.ConnectBoth(0, 1, 1)
	tree := BuildMulticastTree(g, 0, []topo.NodeID{1, 2})
	if len(tree.Receivers) != 1 || tree.Receivers[0] != 1 {
		t.Fatalf("receivers = %v", tree.Receivers)
	}
}

func TestMulticastReachesAllReceivers(t *testing.T) {
	// Walking the tree from the source must visit every receiver.
	g := topo.ConnectedWaxman(30, 0.3, 0.25, sim.NewRNG(5))
	recv := []topo.NodeID{5, 12, 20, 29, 3}
	tree := BuildMulticastTree(g, 0, recv)
	visited := map[topo.NodeID]bool{}
	var walk func(n topo.NodeID)
	walk = func(n topo.NodeID) {
		visited[n] = true
		for _, c := range tree.FanOut(n) {
			walk(c)
		}
	}
	walk(0)
	for _, r := range tree.Receivers {
		if !visited[r] {
			t.Fatalf("receiver %d unreached", r)
		}
	}
	// Tree never costs more than unicast.
	if tree.Links > tree.UnicastCopies(g) {
		t.Fatal("tree worse than unicast")
	}
}
