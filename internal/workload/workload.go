// Package workload provides the traffic generators the experiments and
// example applications drive their networks with: constant-bit-rate
// media streams, Poisson packet arrivals, Zipf popularity sampling and
// bursty on/off sources. Generators schedule themselves on a sim.Kernel
// and are deterministic per RNG.
package workload

import (
	"math"

	"viator/internal/roles"
	"viator/internal/sim"
)

// CBR schedules a constant-bit-rate stream: chunkBytes every
// chunkBytes/rateBps seconds, calling emit with sequenced chunks. Stop
// the returned ticker to end the stream.
func CBR(k *sim.Kernel, stream string, rateBps float64, chunkBytes int, emit func(roles.Chunk)) *sim.Ticker {
	if rateBps <= 0 || chunkBytes <= 0 {
		panic("workload: bad CBR parameters")
	}
	period := float64(chunkBytes) / rateBps
	seq := 0
	return k.Every(period, func() {
		emit(roles.Chunk{Stream: stream, Seq: seq, Bytes: chunkBytes})
		seq++
	})
}

// Poisson schedules packet arrivals with exponential inter-arrival times
// of the given mean rate (events/second). It reschedules itself until
// the returned stop function is called.
func Poisson(k *sim.Kernel, rng *sim.RNG, rate float64, emit func(seq int)) (stop func()) {
	if rate <= 0 {
		panic("workload: bad Poisson rate")
	}
	stopped := false
	seq := 0
	var arm func()
	arm = func() {
		k.After(rng.Exp(1/rate), func() {
			if stopped {
				return
			}
			emit(seq)
			seq++
			arm()
		})
	}
	arm()
	return func() { stopped = true }
}

// Zipf is a reusable Zipf(s) index sampler over {0..n-1}: the harmonic
// CDF is precomputed once at construction, and each Draw costs one
// uniform plus a binary search — allocation-free and safe for concurrent
// draws from distinct RNGs, since Draw only reads the CDF.
type Zipf struct {
	cdf []float64
	h   float64
}

// NewZipf builds a sampler over n indexes with skew s (> 0; larger s
// concentrates mass on low indexes).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("workload: empty catalog")
	}
	z := &Zipf{cdf: make([]float64, n)}
	for i := 1; i <= n; i++ {
		z.h += 1 / math.Pow(float64(i), s)
		z.cdf[i-1] = z.h
	}
	return z
}

// Draw samples one index from rng. 0 allocs/op.
//
//viator:noalloc
func (z *Zipf) Draw(rng *sim.RNG) int {
	u := rng.Float64() * z.h
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// OnOff schedules a bursty source: exponentially distributed ON periods
// (mean onMean) emitting at rateBps, separated by OFF periods (mean
// offMean) of silence — the adversarial load for feedback controllers.
func OnOff(k *sim.Kernel, rng *sim.RNG, stream string, rateBps, onMean, offMean float64, chunkBytes int, emit func(roles.Chunk)) (stop func()) {
	stopped := false
	seq := 0
	period := float64(chunkBytes) / rateBps
	var onPhase func(until float64)
	var offPhase func()
	onPhase = func(until float64) {
		if stopped {
			return
		}
		if k.Now() >= until {
			offPhase()
			return
		}
		emit(roles.Chunk{Stream: stream, Seq: seq, Bytes: chunkBytes})
		seq++
		k.After(period, func() { onPhase(until) })
	}
	offPhase = func() {
		if stopped {
			return
		}
		k.After(rng.Exp(offMean), func() {
			if stopped {
				return
			}
			onPhase(k.Now() + rng.Exp(onMean))
		})
	}
	// Start in an ON burst.
	k.After(0, func() { onPhase(k.Now() + rng.Exp(onMean)) })
	return func() { stopped = true }
}
