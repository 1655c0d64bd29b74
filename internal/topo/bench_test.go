package topo

import (
	"testing"

	"viator/internal/sim"
)

// BenchmarkSettleUntil measures the adaptive router's lazy tree build on
// an S1-sized radio mesh (1000 nodes on a 1000×1000 arena, range 75):
// each op starts a tree from a recycled SPT and settles it toward four
// random destinations, the way forwarding queries a source per epoch.
func BenchmarkSettleUntil(b *testing.B) {
	g := RandomGeometric(1000, 1000, 75, sim.NewRNG(42))
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
	n := g.N()
	rng := sim.NewRNG(7)
	queries := make([]NodeID, 5*1024)
	for i := range queries {
		queries[i] = NodeID(rng.Intn(n))
	}
	tree := ov.ComputeOverlayInto(nil, 0) // grown once, as a recycled tree is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[5*(i%1024):]
		ov.StartInto(tree, q[0])
		for _, dst := range q[1:5] {
			ov.SettleUntil(tree, dst)
		}
	}
}
