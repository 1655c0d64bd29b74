package topo

// MostCentral returns the node with the highest betweenness (ties break
// toward the lower id) — the default wandering target.
func (g *Graph) MostCentral() NodeID {
	cb := g.Betweenness()
	best := 0
	for i := 1; i < len(cb); i++ {
		if cb[i] > cb[best] {
			best = i
		}
	}
	return NodeID(best)
}

// Betweenness computes unweighted betweenness centrality (Brandes'
// algorithm over up links): the fraction of shortest paths crossing each
// node. Horizontal wandering uses it to pick principled interior
// placements for fusion/caching functions — a demand-independent prior
// for "where should this function settle".
func (g *Graph) Betweenness() []float64 {
	n := g.n
	cb := make([]float64, n)
	for s := 0; s < n; s++ {
		// BFS from s.
		var stack []int
		pred := make([][]int, n)
		sigma := make([]float64, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		sigma[s] = 1
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, li := range g.adj[v] {
				l := g.link[li]
				if !l.Up {
					continue
				}
				w := int(l.To)
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					pred[w] = append(pred[w], v)
				}
			}
		}
		// Accumulate dependencies in reverse BFS order.
		delta := make([]float64, n)
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range pred[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				cb[w] += delta[w]
			}
		}
	}
	return cb
}
