package routing

import (
	"testing"

	"viator/internal/sim"
	"viator/internal/topo"
)

// controlPlaneGraph builds the S1-sized control-plane benchmark topology:
// 1000 nodes on a 1000×1000 arena with radio range 75 — the same radio-
// mesh density as the metropolis scenario, ~16k directed links.
func controlPlaneGraph() *topo.Graph {
	return topo.RandomGeometric(1000, 1000, 75, sim.NewRNG(42))
}

// controlPlaneRouter is the benchmark router: the default overlay plus a
// congestion-phobic QoS class, with utilization observed on every link.
func controlPlaneRouter(g *topo.Graph) *Adaptive {
	r := NewAdaptive(g, 4)
	r.SpawnOverlay("qos", 3)
	for li := 0; li < g.Links(); li++ {
		r.ObserveUtilization(li, 0.5)
	}
	return r
}

// warmAllPairs routes every pair through NextHop on every overlay of r,
// so each overlay holds a sink tree per destination, settled out to
// every source: the steady state with the tree arena built.
func warmAllPairs(r *Adaptive, g *topo.Graph) {
	n := topo.NodeID(g.N())
	for _, ov := range r.Overlays() {
		for src := topo.NodeID(0); src < n; src++ {
			for dst := topo.NodeID(0); dst < n; dst++ {
				r.NextHop(ov, src, dst)
			}
		}
	}
}

// BenchmarkAdaptivePulse measures the adaptive control plane at S1 scale
// (1000 nodes, ~16k links, 2 overlays): the gated no-op pulse, the
// sparse-traffic lazy cycle toward far and toward near (three-hop)
// destinations, and packets walking hop by hop to far destinations.
func BenchmarkAdaptivePulse(b *testing.B) {
	// Steady is the gated no-op pulse: no routing input changed since the
	// last invalidation, so a pulse is one version compare plus a
	// utilization-snapshot scan. 0 allocs/op.
	b.Run("Steady", func(b *testing.B) {
		b.ReportAllocs()
		g := controlPlaneGraph()
		r := controlPlaneRouter(g)
		r.Pulse()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Pulse()
		}
		b.StopTimer()
		if r.Recomputes != 1 || r.SkippedPulses != b.N {
			b.Fatalf("gate failed: recomputes=%d skipped=%d", r.Recomputes, r.SkippedPulses)
		}
	})
	// LazySparse routes 16 sources per op to the far side of the node
	// range, one hop each: the lazy builds, not all-pairs, each settling
	// most of its tree.
	b.Run("LazySparse", func(b *testing.B) { adaptivePulseLazy(b, farSide, false) })
	// LazyWalk sends the same 16 packets per op, each walking hop by hop
	// through NextHop to its far destination: the per-packet pattern,
	// where every hop after the first queries a node nearer the
	// destination.
	b.Run("LazyWalk", func(b *testing.B) { adaptivePulseLazy(b, farSide, true) })
	// LazyLocal is district-local traffic: each source routes to a node
	// three radio hops away, so each lazy build settles its tree only
	// over that neighborhood.
	b.Run("LazyLocal", func(b *testing.B) {
		adaptivePulseLazy(b, func(g *topo.Graph) []topo.NodeID { return hopsAway(g, 3) }, false)
	})
}

// farSide maps each source to the node half the id range away.
func farSide(g *topo.Graph) []topo.NodeID {
	n := g.N()
	dst := make([]topo.NodeID, n)
	for src := range dst {
		dst[src] = topo.NodeID((src + n/2) % n)
	}
	return dst
}

// adaptivePulseLazy is the sparse-traffic adaptation cycle: fresh
// utilization on one link, an invalidating pulse, then routes from 16
// sources to the destination table dstOf builds for the benchmark
// topology — the first hop only, or with walk every hop of the way.
func adaptivePulseLazy(b *testing.B, dstOf func(g *topo.Graph) []topo.NodeID, walk bool) {
	b.ReportAllocs()
	g := controlPlaneGraph()
	r := controlPlaneRouter(g)
	n := g.N()
	dst := dstOf(g)
	// Warm the pooled tables/scratches so the figures show the steady
	// state, not the one-time build of the table arena.
	r.Pulse()
	warmAllPairs(r, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ObserveUtilization(i%g.Links(), float64(i%7)/8)
		r.Pulse()
		for s := 0; s < 16; s++ {
			src := (i*31 + s*61) % n
			v := r.NextHop("qos", topo.NodeID(src), dst[src])
			for hops := 1; walk && v >= 0 && v != dst[src]; hops++ {
				if hops == n {
					b.Fatalf("forwarding loop from %d toward %d", src, dst[src])
				}
				v = r.NextHop("qos", v, dst[src])
			}
		}
	}
}

// hopsAway returns, per source, the first node a breadth-first search
// over up links reaches at exactly k hops, or the last node it reaches
// when the source's component is shallower than k.
func hopsAway(g *topo.Graph, k int) []topo.NodeID {
	n := g.N()
	out := make([]topo.NodeID, n)
	depth := make([]int, n)
	for src := range out {
		for v := range depth {
			depth[v] = -1
		}
		depth[src] = 0
		queue := []topo.NodeID{topo.NodeID(src)}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			out[src] = u
			if depth[u] == k {
				break
			}
			for _, v := range g.Neighbors(u) {
				if depth[v] < 0 {
					depth[v] = depth[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return out
}

// BenchmarkAdaptiveNextHop measures the forwarding-path lookup on warm
// tables — the per-hop per-packet control-plane cost. O(1) array reads,
// 0 allocs/op.
func BenchmarkAdaptiveNextHop(b *testing.B) {
	b.ReportAllocs()
	g := controlPlaneGraph()
	r := controlPlaneRouter(g)
	r.Pulse()
	warmAllPairs(r, g)
	n := topo.NodeID(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := topo.NodeID(i) % n
		r.NextHop("qos", src, (src+n/2)%n)
	}
}
