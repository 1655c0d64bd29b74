package mobility

import "viator/internal/topo"

// This file retains the brute-force connectivity synthesis as the oracle
// for ConnScratch: every pair tested, every link flapped down and the
// in-range pairs raised in (i<j) order. Both refresh forms must leave
// the same link table — set, costs and creation order — behind it.

// Connectivity rebuilds radio-range links on g from the given positions:
// existing links are torn down and pairs within radius are connected with
// cost = distance. It returns the number of (directed) up links.
//
// This is the brute-force O(n²) reference implementation — all pairs
// tested, every link flapped — kept verbatim as the pre-refactor oracle
// that the spatial-hash paths (ConnScratch) are property-tested and
// benchmarked against.
func Connectivity(g *topo.Graph, pos []topo.Point, radius float64) int {
	for i := 0; i < g.Links(); i++ {
		g.SetUp(i, false)
	}
	up := 0
	for i := 0; i < g.N(); i++ {
		g.SetPos(topo.NodeID(i), pos[i])
	}
	for i := 0; i < g.N(); i++ {
		for j := i + 1; j < g.N(); j++ {
			d := pos[i].Dist(pos[j])
			if d > radius {
				continue
			}
			a, b := topo.NodeID(i), topo.NodeID(j)
			reuseDirected(g, a, b, d)
			reuseDirected(g, b, a, d)
			up += 2
		}
	}
	return up
}

// reuseDirected re-activates an existing link a→b if present, otherwise
// adds one. LinkBetween scans a's out-links in insertion order, as the
// pre-refactor refresh did (minus the adjacency copy it made per call).
func reuseDirected(g *topo.Graph, a, b topo.NodeID, cost float64) {
	if li := g.LinkBetween(a, b); li >= 0 {
		g.SetCost(li, cost)
		g.SetUp(li, true)
		return
	}
	g.Connect(a, b, cost)
}
