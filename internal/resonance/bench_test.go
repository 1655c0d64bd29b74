package resonance

import (
	"fmt"
	"testing"

	"viator/internal/kq"
	"viator/internal/sim"
)

// benchSnapshots precomputes the fact-set stream the observation
// benchmarks fold in: 64 rotating snapshots of 24 facts drawn from a
// 96-fact universe (the pair kernel is 276 pairs per snapshot).
func benchSnapshots() [][]kq.FactID {
	universe := make([]kq.FactID, 96)
	for i := range universe {
		universe[i] = kq.FactID(fmt.Sprintf("need:fact-%02d", i))
	}
	rng := sim.NewRNG(42)
	snaps := make([][]kq.FactID, 64)
	for s := range snaps {
		snap := make([]kq.FactID, 24)
		for i := range snap {
			snap[i] = universe[rng.Intn(len(universe))]
		}
		snaps[s] = snap
	}
	return snaps
}

// BenchmarkObserveFacts measures the interned co-occurrence fold: per
// snapshot, slice-indexed fact counts and one uint64-keyed map increment
// per pair. 0 allocs/op steady state.
func BenchmarkObserveFacts(b *testing.B) {
	b.ReportAllocs()
	e := New(DefaultConfig())
	snaps := benchSnapshots()
	for _, s := range snaps {
		e.ObserveFacts(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ObserveFacts(snaps[i%len(snaps)])
	}
}

// BenchmarkEmergeFrontier measures the steady-state emergence scan:
// every resonant pair already emerged, the frontier holds only the
// sub-bar candidates, and no names are rebuilt.
func BenchmarkEmergeFrontier(b *testing.B) {
	b.ReportAllocs()
	e := New(DefaultConfig())
	snaps := benchSnapshots()
	for r := 0; r < 10; r++ {
		for _, s := range snaps {
			e.ObserveFacts(s)
		}
	}
	e.Emerge() // drain everything already resonant
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Emerge()
	}
}
