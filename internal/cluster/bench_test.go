package cluster

import (
	"testing"

	"viator/internal/ployon"
	"viator/internal/sim"
)

// benchCommunity builds the S2-sized (10k ships) all-fair community: a
// stable fleet with no exclusions, so every round measures the same
// population.
func benchCommunity(b *testing.B) *Community {
	c := New(DefaultConfig(), sim.NewRNG(42))
	for i := 0; i < 10_000; i++ {
		c.Add(newShip(b, ployon.ID(i+1), ployon.Class(i%int(ployon.NumClasses)), true))
	}
	return c
}

// BenchmarkGossipRound measures the community verification round on the
// indexed fast path: per probe, one RNG draw and one role-kind compare.
// 0 allocs/op steady state.
func BenchmarkGossipRound(b *testing.B) {
	b.ReportAllocs()
	c := benchCommunity(b)
	c.GossipRound()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.GossipRound()
	}
}

// BenchmarkFormClustersSteady measures re-clustering an unchanged fleet:
// the fingerprint gate absorbs the pass in one hash over the active
// view. 0 allocs/op.
func BenchmarkFormClustersSteady(b *testing.B) {
	b.ReportAllocs()
	c := benchCommunity(b)
	c.FormClusters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FormClusters()
	}
}

// BenchmarkFormClustersRebuild measures the full greedy congruence pass
// by touching one ship's shape before each call to defeat the gate.
func BenchmarkFormClustersRebuild(b *testing.B) {
	b.ReportAllocs()
	c := benchCommunity(b)
	m := c.members[1]
	c.FormClusters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Ship.Shape[0] += 1e-12 // invalidate the fingerprint, not the clustering
		c.FormClusters()
	}
}
