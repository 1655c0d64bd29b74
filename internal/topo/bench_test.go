package topo

import (
	"testing"

	"viator/internal/sim"
)

// BenchmarkSettleUntil measures the adaptive router's lazy tree build,
// starting each op's tree from a recycled SPT:
//
//   - S1 is an S1-sized radio mesh (1000 nodes on a 1000×1000 arena,
//     range 75). Each op settles the tree toward four random
//     destinations, the way forwarding queries a source per epoch, so it
//     resumes a run three times.
//   - S2 is an S2-sized one (10,000 nodes on a 3200×3200 arena, range
//     75). Each op settles toward one destination a few hops away, the
//     way district-local traffic queries a source, so the restart's
//     per-node reset weighs as much as the settling.
func BenchmarkSettleUntil(b *testing.B) {
	b.Run("S1", func(b *testing.B) {
		g := RandomGeometric(1000, 1000, 75, sim.NewRNG(42))
		var ov CostOverlay
		g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
		n := g.N()
		rng := sim.NewRNG(7)
		queries := make([]NodeID, 5*1024)
		for i := range queries {
			queries[i] = NodeID(rng.Intn(n))
		}
		sc, tree := &SPTScratch{}, &SPT{}
		ov.StartInto(tree, 0) // grown once, as a recycled tree is
		ov.SettleUntil(sc, tree, -1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[5*(i%1024):]
			ov.StartInto(tree, q[0])
			for _, dst := range q[1:5] {
				ov.SettleUntil(sc, tree, dst)
			}
		}
	})
	b.Run("S2", func(b *testing.B) {
		g := RandomGeometric(10000, 3200, 75, sim.NewRNG(42))
		var ov CostOverlay
		g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
		n := g.N()
		rng := sim.NewRNG(7)
		// Each query pairs a source with the end of a three-hop random
		// walk from it (the source itself when it is isolated).
		queries := make([]NodeID, 2*1024)
		for i := 0; i < len(queries); i += 2 {
			src := NodeID(rng.Intn(n))
			dst := src
			for hop := 0; hop < 3; hop++ {
				if nb := g.Neighbors(dst); len(nb) > 0 {
					dst = nb[rng.Intn(len(nb))]
				}
			}
			queries[i], queries[i+1] = src, dst
		}
		sc, tree := &SPTScratch{}, &SPT{}
		ov.StartInto(tree, 0) // grown once, as a recycled tree is
		ov.SettleUntil(sc, tree, -1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[2*(i%1024):]
			ov.StartInto(tree, q[0])
			ov.SettleUntil(sc, tree, q[1])
		}
	})
}

// BenchmarkLinkBetween measures LinkBetween's worst case: a star whose
// hub has 4,096 out-links, queried for its last-inserted target (the
// longest hit) and for a node it has no link to (a full miss). The scan
// is linear in out-degree; no scenario has a hub of this size.
func BenchmarkLinkBetween(b *testing.B) {
	const spokes = 4096
	g := New()
	hub := g.AddNodes(spokes + 2)
	for i := 1; i <= spokes; i++ {
		g.Connect(hub, NodeID(i), 1)
	}
	absent := NodeID(spokes + 1)
	for _, bc := range []struct {
		name string
		to   NodeID
		want int
	}{
		{"Last", NodeID(spokes), spokes - 1},
		{"Absent", absent, -1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g.LinkBetween(hub, bc.to) != bc.want {
					b.Fatal("wrong link")
				}
			}
		})
	}
}
