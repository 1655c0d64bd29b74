package telemetry

import (
	"testing"

	"viator/internal/sim"
)

// BenchmarkHistObserve measures the streaming histogram's
// per-observation cost: a float-bit bucket index plus a handful of
// increments. 0 allocs/op — the property that lets it replace the
// retained-sample Summary as the delivery-latency sink on stress
// scenarios.
func BenchmarkHistObserve(b *testing.B) {
	b.ReportAllocs()
	h := NewHist()
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(rng.Exp(0.01))
	}
}

// BenchmarkHistQuantile measures a quantile query against a well-filled
// histogram: one cumulative walk over the fixed bucket array per order
// statistic.
func BenchmarkHistQuantile(b *testing.B) {
	b.ReportAllocs()
	h := NewHist()
	rng := sim.NewRNG(1)
	for i := 0; i < 1_000_000; i++ {
		h.Observe(rng.Exp(0.01))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.95)
	}
}

// BenchmarkHistMerge measures folding one full histogram into another —
// the per-replicate pooling cost of the telemetry export pipeline.
func BenchmarkHistMerge(b *testing.B) {
	b.ReportAllocs()
	src, dst := NewHist(), NewHist()
	rng := sim.NewRNG(1)
	for i := 0; i < 100_000; i++ {
		src.Observe(rng.Exp(0.01))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Merge(src)
	}
}

// BenchmarkRecorderTick measures one flight-recorder tick over a
// telemetry stack the size the stress scenarios run (the scenario
// counters, a role census prep pass stand-in, and per-role gauges — 12
// series): closure samples into preallocated columnar rings, windowed
// rollups included. 0 allocs/op steady-state.
func BenchmarkRecorderTick(b *testing.B) {
	b.ReportAllocs()
	r := NewRecorder(256, 4)
	var census [5]float64
	cum := 0.0
	r.BeforeTick(func() {
		for k := range census {
			census[k] = cum * float64(k)
		}
	})
	for s := 0; s < 7; s++ {
		s := s
		if s%2 == 0 {
			r.CounterFn("c", func() float64 { return cum * float64(s+1) })
		} else {
			r.Gauge("g", func() float64 { return cum - float64(s) })
		}
	}
	for k := range census {
		k := k
		r.Gauge("roles", func() float64 { return census[k] })
	}
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cum++
		now += 0.5
		r.Tick(now)
	}
}

// BenchmarkScorecardDelivered measures the per-delivery QoS scorecard
// cost: two slice increments plus one histogram observe. 0 allocs/op.
func BenchmarkScorecardDelivered(b *testing.B) {
	b.ReportAllocs()
	s := NewScoreSet()
	f := s.Flow("data", SLO{Quantile: 0.95, MaxLatency: 0.05, MinDeliveryRatio: 0.5})
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sent(f)
		s.Delivered(f, rng.Exp(0.01))
	}
}
