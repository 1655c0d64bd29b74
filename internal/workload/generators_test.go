package workload

import (
	"fmt"

	"viator/internal/roles"
	"viator/internal/sim"
	"viator/internal/topo"
)

// ZipfRequests generates content requests over a catalog of n objects
// with Zipf(s) popularity at the given rate. Keys are "obj-<i>" with
// low i the popular objects — the cache-role workload.
func ZipfRequests(k *sim.Kernel, rng *sim.RNG, n int, s, rate float64, emit func(roles.Chunk)) (stop func()) {
	z := NewZipf(n, s)
	seq := 0
	return Poisson(k, rng, rate, func(int) {
		obj := z.Draw(rng)
		emit(roles.Chunk{Stream: "req", Seq: seq, Key: fmt.Sprintf("obj-%d", obj), Meta: "request"})
		seq++
	})
}

// SensorReading is one observation from a sensor field.
type SensorReading struct {
	Sensor topo.NodeID
	Seq    int
	Bytes  int
}

// SensorField schedules periodic readings from every listed sensor with
// per-sensor phase jitter (so readings don't synchronize). Stop the
// returned tickers to silence the field.
func SensorField(k *sim.Kernel, rng *sim.RNG, sensors []topo.NodeID, period float64, bytes int, emit func(SensorReading)) []*sim.Ticker {
	var out []*sim.Ticker
	for _, s := range sensors {
		s := s
		seq := 0
		jitter := rng.Float64() * period
		// Phase-shift the first tick, then run periodically.
		k.After(jitter, func() {
			emit(SensorReading{Sensor: s, Seq: seq, Bytes: bytes})
			seq++
		})
		t := k.Every(period, func() {
			emit(SensorReading{Sensor: s, Seq: seq, Bytes: bytes})
			seq++
		})
		out = append(out, t)
	}
	return out
}
