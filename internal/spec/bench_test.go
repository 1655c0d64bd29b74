package spec

import "testing"

// BenchmarkSpecStateExploration measures one exhaustive safety check of
// the adaptive routing protocol at its default size (4 nodes, 2 link
// toggles).
func BenchmarkSpecStateExploration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := New(Config{N: 4, Budget: 2})
		if !p.CheckSafety(0).OK() {
			b.Fatal("violation")
		}
	}
}
