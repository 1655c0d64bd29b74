package sim

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkKernel measures the event arena's schedule/fire and cancel
// paths in steady state, where every slot comes off the free list. The
// alloc figures are the point: zero per event.
func BenchmarkKernel(b *testing.B) {
	b.Run("ScheduleFire", func(b *testing.B) {
		// One After per op, batch-firing every 1024 events.
		b.ReportAllocs()
		k := NewKernel(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.After(1, func() {})
			if len(k.heap) > 1024 {
				k.Run(k.Now() + 0.5)
			}
		}
		k.Run(math.Inf(1))
	})
	b.Run("ScheduleCancel", func(b *testing.B) {
		b.ReportAllocs()
		k := NewKernel(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.After(1, func() {}).Cancel()
			if len(k.heap) > 1024 {
				k.Run(k.Now() + 0.5)
			}
		}
		k.Run(math.Inf(1))
	})
	b.Run("Ticker", func(b *testing.B) {
		b.ReportAllocs()
		k := NewKernel(1)
		n := 0
		t := k.Every(1, func() { n++ })
		b.ResetTimer()
		k.Run(float64(b.N))
		b.StopTimer()
		t.Stop()
		if n < b.N-1 {
			b.Fatalf("ticker fired %d of %d", n, b.N)
		}
	})
}

// shardBenchHorizon is the virtual time one BenchmarkShardGroupWindowed
// op advances the group by. With lookahead 0.01 that is ~100 windows/op.
const shardBenchHorizon = 1.0

// BenchmarkShardGroupWindowed measures the conservative windowed
// executor at 1/2/4/8 kernels: 64 self-rescheduling entities per kernel,
// every fourth firing posting minimum-latency mail to the next kernel.
// One op runs the group one horizon forward — window scan, barrier,
// mailbox exchange, heap commit included. Steady state is 0 allocs/op:
// entities and mail payloads are preallocated, and the group's outboxes,
// inbox heaps and worker pool all reuse their arenas.
func BenchmarkShardGroupWindowed(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) { shardGroupWindowed(b, k, 64) })
	}
}

func shardGroupWindowed(b *testing.B, k, nPer int) {
	b.ReportAllocs()
	const la = 0.01
	g := NewShardGroup(ShardSeeds(k, 1), la)
	defer g.Close()
	type ent struct {
		shard int
		fired int
		msg   int // preallocated mail payload
		step  func()
	}
	ents := make([]*ent, 0, k*nPer)
	for s := 0; s < k; s++ {
		s := s
		kn := g.Shard(s)
		g.OnMail(s, func(payload any) { _ = payload.(*int) })
		for i := 0; i < nPer; i++ {
			e := &ent{shard: s}
			rng := NewRNG(uint64(s*nPer+i+1) * 0x9e3779b97f4a7c15)
			e.step = func() {
				e.fired++
				if e.fired%4 == 0 {
					g.Post(e.shard, (e.shard+1)%k, kn.Now()+la, &e.msg)
				}
				kn.After(la+0.001+rng.Float64()*0.01, e.step)
			}
			kn.After(rng.Float64()*la, e.step)
			ents = append(ents, e)
		}
	}
	// One warm horizon grows every arena to steady state.
	until := Time(shardBenchHorizon)
	windows := 0
	for g.StepWindow(until) {
		windows++
	}
	g.StepTo(until, until)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until += shardBenchHorizon
		g.StepTo(until, until)
	}
	b.StopTimer()
	fired := 0
	for _, e := range ents {
		fired += e.fired
	}
	if fired == 0 || windows == 0 {
		b.Fatalf("workload idle: fired=%d windows=%d", fired, windows)
	}
}

// BenchmarkShardMailbox measures the raw cross-kernel mail cycle: one
// Post, one barrier exchange (outbox drain + inbox heap push + commit
// scheduling), one Run that pops and delivers the entry.
// 0 allocs/op.
func BenchmarkShardMailbox(b *testing.B) {
	b.ReportAllocs()
	g := NewShardGroup(ShardSeeds(2, 1), 0.001)
	delivered := 0
	g.OnMail(1, func(payload any) { delivered++ })
	dst := g.Shard(1)
	payload := new(int)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := dst.Now() + 0.001
		g.Post(0, 1, at, payload)
		g.exchange()
		dst.Run(at)
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
