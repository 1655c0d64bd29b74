package metamorph

import (
	"testing"

	"viator/internal/roles"
)

// BenchmarkMetamorphPulse measures one quiescent horizontal pulse plus
// the CSR census and entropy reads over the S2 fleet (10k ships) — the
// per-epoch principle overhead when no demand shift warrants movement.
// 0 allocs/op.
func BenchmarkMetamorphPulse(b *testing.B) {
	b.ReportAllocs()
	e := New(DefaultConfig(), mixedFleet(b, 10_000))
	demand := func(i int, k roles.Kind) float64 { return 0 }
	var o Outstanding
	e.OutstandingInto(&o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.HorizontalPulse(demand)
		e.OutstandingInto(&o)
		e.RoleEntropy()
	}
}
