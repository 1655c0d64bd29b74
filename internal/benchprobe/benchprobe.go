// Package benchprobe holds the substrate benchmark bodies shared between
// the `go test -bench` suite (bench_test.go) and the `viatorbench -bench`
// JSON artifact, so CI's benchmark step and BENCH_kernel.json always
// measure the same loops and cannot silently diverge.
package benchprobe

import (
	"testing"

	"viator/internal/mobility"
	"viator/internal/netsim"
	"viator/internal/routing"
	"viator/internal/sim"
	"viator/internal/telemetry"
	"viator/internal/topo"
)

// KernelScheduleFire measures the kernel's schedule/fire hot path: one
// After per op, batch-firing every 1024 events. Steady state is 0
// allocs/op — every slot comes off the arena free list.
func KernelScheduleFire(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(1, func() {})
		if k.Pending() > 1024 {
			k.Run(k.Now() + 0.5)
		}
	}
	k.Drain()
}

// NetsimSendDeliver measures the per-packet transmit path: enqueue onto a
// link's ring queue, one serialization event, one arrival event, delivery
// through the persistent per-link state machine. The single alloc/op is
// the packet itself.
func NetsimSendDeliver(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	g := topo.New()
	g.AddNodes(2)
	g.Connect(0, 1, 1)
	n := netsim.New(k, g)
	n.SetLinkProps(0, netsim.LinkProps{Bandwidth: 1e9, Delay: 0.0001, QueueCap: 1 << 30})
	delivered := 0
	n.OnReceive(func(at topo.NodeID, p *netsim.Packet) { delivered++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(0, 1, n.NewPacket(0, 1, 1000, "bench", nil))
		if i%1024 == 1023 {
			k.Drain()
		}
	}
	k.Drain()
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// Replicated measures one end-to-end replicated harness invocation per
// op. The run closure is injected by the caller (the root viator package
// cannot be imported from here without a cycle through its own tests).
func Replicated(b *testing.B, run func() error) {
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- routing control-plane benchmarks (BENCH_routing.json) ---
//
// Each body is a constructor taking the topology seed and returning the
// benchmark func, so the seed recorded in the emitted artifact is the
// seed the numbers were actually measured on.

// controlPlaneGraph builds the S1-sized control-plane benchmark topology:
// 1000 nodes on a 1000×1000 arena with radio range 75 — the same radio-
// mesh density as the metropolis scenario, ~16k directed links.
func controlPlaneGraph(seed uint64) *topo.Graph {
	return topo.RandomGeometric(1000, 1000, 75, sim.NewRNG(seed))
}

// controlPlaneRouter is the benchmark router: the default overlay plus a
// congestion-phobic QoS class, with utilization observed on every link.
func controlPlaneRouter(g *topo.Graph) *routing.Adaptive {
	r := routing.NewAdaptive(g, 4)
	r.SpawnOverlay("qos", 3)
	for li := 0; li < g.Links(); li++ {
		r.ObserveUtilization(li, 0.5)
	}
	return r
}

// AdaptivePulseSteady measures the gated no-op pulse: no routing input
// changed since the last invalidation, so a pulse is one version compare
// plus a utilization-snapshot scan. 0 allocs/op.
func AdaptivePulseSteady(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		g := controlPlaneGraph(seed)
		r := controlPlaneRouter(g)
		r.Pulse()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Pulse()
		}
		b.StopTimer()
		if r.Recomputes != 1 || r.SkippedPulses != b.N {
			b.Fatalf("gate failed: recomputes=%d skipped=%d", r.Recomputes, r.SkippedPulses)
		}
	}
}

// AdaptivePulseLazySparse measures the sparse-traffic adaptation cycle:
// fresh utilization on one link, an invalidating pulse, then routes from
// 16 sources to the far side of the node range — the per-source lazy
// builds, not all-pairs, each settling most of its tree.
func AdaptivePulseLazySparse(seed uint64) func(b *testing.B) {
	return adaptivePulseLazy(seed, func(g *topo.Graph) []topo.NodeID {
		n := g.N()
		dst := make([]topo.NodeID, n)
		for src := range dst {
			dst[src] = topo.NodeID((src + n/2) % n)
		}
		return dst
	})
}

// AdaptivePulseLazyLocal is AdaptivePulseLazySparse with district-local
// traffic: each source routes to a node three radio hops away, so each
// lazy build settles its tree only over that neighborhood.
func AdaptivePulseLazyLocal(seed uint64) func(b *testing.B) {
	return adaptivePulseLazy(seed, func(g *topo.Graph) []topo.NodeID { return hopsAway(g, 3) })
}

// adaptivePulseLazy is the lazy adaptation cycle routing each source to
// the destination table dstOf builds for the benchmark topology.
func adaptivePulseLazy(seed uint64, dstOf func(g *topo.Graph) []topo.NodeID) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		g := controlPlaneGraph(seed)
		r := controlPlaneRouter(g)
		n := g.N()
		dst := dstOf(g)
		// Warm the pooled tables/scratches so the figures show the steady
		// state, not the one-time build of the table arena.
		r.Pulse()
		r.Rebuild()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ObserveUtilization(i%g.Links(), float64(i%7)/8)
			r.Pulse()
			for s := 0; s < 16; s++ {
				src := (i*31 + s*61) % n
				r.NextHop("qos", topo.NodeID(src), dst[src])
			}
		}
	}
}

// hopsAway returns, per source, the first node a breadth-first search
// over up links reaches at exactly k hops, or the last node it reaches
// when the source's component is shallower than k.
func hopsAway(g *topo.Graph, k int) []topo.NodeID {
	n := g.N()
	out := make([]topo.NodeID, n)
	depth := make([]int, n)
	for src := range out {
		for v := range depth {
			depth[v] = -1
		}
		depth[src] = 0
		queue := []topo.NodeID{topo.NodeID(src)}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			out[src] = u
			if depth[u] == k {
				break
			}
			for _, v := range g.Neighbors(u) {
				if depth[v] < 0 {
					depth[v] = depth[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return out
}

// AdaptivePulseRebuild measures the full eager adaptation at S1 scale:
// fresh utilization, an invalidating pulse, then Rebuild fans the
// all-pairs recomputation of every overlay over the worker pool — the
// direct successor of the old clone-per-overlay Pulse.
func AdaptivePulseRebuild(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		g := controlPlaneGraph(seed)
		r := controlPlaneRouter(g)
		// Warm the pooled tables/scratches so the figures show the steady
		// state, not the one-time build of the table arena.
		r.Pulse()
		r.Rebuild()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ObserveUtilization(i%g.Links(), float64(i%7)/8)
			r.Pulse()
			r.Rebuild()
		}
	}
}

// --- physical-layer benchmarks (BENCH_mobility.json) ---

// physicalModel builds the S1-scale mobility workload: 1000 random-
// waypoint ships on a 1000×1000 arena — the metropolis fleet whose
// radio-range refresh the spatial-hash work is measured against.
func physicalModel(seed uint64) *mobility.RandomWaypoint {
	return mobility.NewRandomWaypoint(1000, 1000, 2, 10, 1, sim.NewRNG(seed))
}

// physicalRadius is the radio range matching the S1 scenario.
const physicalRadius = 75.0

// physicalFrames precomputes one fixed cycle of fleet positions: the
// model is advanced into its long-run (center-biased) regime, then 256
// consecutive 0.1 s frames are recorded. Every connectivity benchmark
// replays this same cycle, so the three variants measure the identical
// refresh workload, and per-op work does not drift with the iteration
// count the harness picks.
func physicalFrames(seed uint64) [][]topo.Point {
	m := physicalModel(seed)
	m.Step(60)
	frames := make([][]topo.Point, 256)
	for f := range frames {
		frames[f] = append([]topo.Point(nil), m.Step(0.1)...)
	}
	return frames
}

// ConnectivityOracle measures the brute-force O(n²) refresh — all
// n(n-1)/2 pair tests, a full link flap, linear-scan link reuse — the
// pre-refactor physical layer, kept as the baseline the grid and
// incremental paths are compared against.
func ConnectivityOracle(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		frames := physicalFrames(seed)
		g := topo.New()
		g.AddNodes(len(frames[0]))
		mobility.Connectivity(g, frames[len(frames)-1], physicalRadius)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mobility.Connectivity(g, frames[i%len(frames)], physicalRadius)
		}
	}
}

// ConnectivityGrid measures the spatial-hash refresh with the oracle's
// flap semantics: candidates from the grid neighborhood (O(n·k)) instead
// of all pairs, every link still cycled down/up.
func ConnectivityGrid(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		frames := physicalFrames(seed)
		g := topo.New()
		g.AddNodes(len(frames[0]))
		var sc mobility.ConnScratch
		sc.GridRefresh(g, frames[len(frames)-1], physicalRadius)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.GridRefresh(g, frames[i%len(frames)], physicalRadius)
		}
	}
}

// ConnectivityIncremental measures the production refresh: spatial-hash
// candidates diffed against the previous neighbor sets, so only links
// whose endpoints crossed radio range are toggled. One full warm cycle
// creates every link the frame cycle will ever need, so the measured
// loop is the true steady state: 0 allocs/op.
func ConnectivityIncremental(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		frames := physicalFrames(seed)
		g := topo.New()
		g.AddNodes(len(frames[0]))
		var sc mobility.ConnScratch
		for _, f := range frames {
			sc.RefreshInto(g, f, physicalRadius)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.RefreshInto(g, frames[i%len(frames)], physicalRadius)
		}
	}
}

// PartitionProbe measures Graph.Connected, the partition probe every
// mobility refresh runs, on the S1-scale radio graph. About half the
// frame cycle's frames are connected; the probe times the first one that
// is, so both the forward and the reverse flood run — the probe's worst
// case. Its allocs/op is a small constant — the visited set, the queue
// and the in-link adjacency — independent of the fleet size.
func PartitionProbe(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		frames := physicalFrames(seed)
		g := topo.New()
		g.AddNodes(len(frames[0]))
		var sc mobility.ConnScratch
		for _, f := range frames {
			sc.RefreshInto(g, f, physicalRadius)
			if g.Connected() {
				break
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Connected()
		}
	}
}

// MobilityStep measures pure position advancement into a caller-owned
// buffer for the 1000-ship fleet. 0 allocs/op once the buffer has grown.
func MobilityStep(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		m := physicalModel(seed)
		var pos []topo.Point
		pos = m.StepInto(pos, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pos = m.StepInto(pos, 0.1)
		}
	}
}

// --- telemetry benchmarks (BENCH_telemetry.json) ---

// HistObserve measures the streaming histogram's per-observation cost:
// a float-bit bucket index plus a handful of increments. 0 allocs/op —
// the property that lets it replace the retained-sample Summary as the
// delivery-latency sink on stress scenarios.
func HistObserve(b *testing.B) {
	b.ReportAllocs()
	h := telemetry.NewHist()
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(rng.Exp(0.01))
	}
}

// HistQuantile measures a quantile query against a well-filled histogram:
// one cumulative walk over the fixed bucket array per order statistic.
func HistQuantile(b *testing.B) {
	b.ReportAllocs()
	h := telemetry.NewHist()
	rng := sim.NewRNG(1)
	for i := 0; i < 1_000_000; i++ {
		h.Observe(rng.Exp(0.01))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.95)
	}
}

// HistMerge measures folding one full histogram into another — the
// per-replicate pooling cost of the telemetry export pipeline.
func HistMerge(b *testing.B) {
	b.ReportAllocs()
	src, dst := telemetry.NewHist(), telemetry.NewHist()
	rng := sim.NewRNG(1)
	for i := 0; i < 100_000; i++ {
		src.Observe(rng.Exp(0.01))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Merge(src)
	}
}

// RecorderTick measures one flight-recorder tick over a telemetry stack
// the size the stress scenarios run (the scenario counters, a role
// census prep pass stand-in, and per-role gauges — 12 series): closure
// samples into preallocated columnar rings, windowed rollups included.
// 0 allocs/op steady-state.
func RecorderTick(b *testing.B) {
	b.ReportAllocs()
	r := telemetry.NewRecorder(256, 4)
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

// ScorecardDelivered measures the per-delivery QoS scorecard cost: two
// slice increments plus one histogram observe. 0 allocs/op.
func ScorecardDelivered(b *testing.B) {
	b.ReportAllocs()
	s := telemetry.NewScoreSet()
	f := s.Flow("data", telemetry.SLO{Quantile: 0.95, MaxLatency: 0.05, MinDeliveryRatio: 0.5})
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sent(f)
		s.Delivered(f, rng.Exp(0.01))
	}
}

// AdaptiveNextHop measures the forwarding-path lookup on warm tables —
// the per-hop per-packet cost. O(1) array reads, 0 allocs/op.
func AdaptiveNextHop(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		g := controlPlaneGraph(seed)
		r := controlPlaneRouter(g)
		r.Pulse()
		r.Rebuild()
		n := topo.NodeID(g.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := topo.NodeID(i) % n
			r.NextHop("qos", src, (src+n/2)%n)
		}
	}
}
