package mobility

import (
	"testing"

	"viator/internal/sim"
	"viator/internal/topo"
)

// benchModel builds the S1-scale mobility workload: 1000 random-waypoint
// ships on a 1000×1000 arena — the metropolis fleet whose radio-range
// refresh the spatial-hash work is measured against.
func benchModel() *RandomWaypoint {
	return NewRandomWaypoint(1000, 1000, 2, 10, 1, sim.NewRNG(42))
}

// benchRadius is the radio range matching the S1 scenario.
const benchRadius = 75.0

// benchFrames precomputes one fixed cycle of fleet positions: the model
// is advanced into its long-run (center-biased) regime, then 256
// consecutive 0.1 s frames are recorded. Every connectivity benchmark
// replays this same cycle, so the three refresh variants measure the
// identical workload, and per-op work does not drift with the iteration
// count the harness picks.
func benchFrames() [][]topo.Point {
	m := benchModel()
	m.StepInto(nil, 60)
	frames := make([][]topo.Point, 256)
	for f := range frames {
		frames[f] = m.StepInto(nil, 0.1)
	}
	return frames
}

// benchGraph returns an edgeless graph over the frame cycle's fleet.
func benchGraph(frames [][]topo.Point) *topo.Graph {
	g := topo.New()
	g.AddNodes(len(frames[0]))
	return g
}

// BenchmarkConnectivityOracle measures the brute-force O(n²) refresh —
// all n(n-1)/2 pair tests, a full link flap, linear-scan link reuse — the
// pre-refactor physical layer, kept as the baseline the grid and
// incremental paths are compared against.
func BenchmarkConnectivityOracle(b *testing.B) {
	b.ReportAllocs()
	frames := benchFrames()
	g := benchGraph(frames)
	Connectivity(g, frames[len(frames)-1], benchRadius)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Connectivity(g, frames[i%len(frames)], benchRadius)
	}
}

// BenchmarkConnectivityGrid measures the spatial-hash refresh with the
// oracle's flap semantics: candidates from the grid neighborhood (O(n·k))
// instead of all pairs, every link still cycled down/up.
func BenchmarkConnectivityGrid(b *testing.B) {
	b.ReportAllocs()
	frames := benchFrames()
	g := benchGraph(frames)
	var sc ConnScratch
	sc.gridRefresh(g, frames[len(frames)-1], benchRadius)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.gridRefresh(g, frames[i%len(frames)], benchRadius)
	}
}

// BenchmarkConnectivityIncremental measures the production refresh:
// spatial-hash candidates diffed against the previous neighbor sets, so
// only links whose endpoints crossed radio range are toggled. One full
// warm cycle creates every link the frame cycle will ever need, so the
// measured loop is the true steady state: 0 allocs/op.
func BenchmarkConnectivityIncremental(b *testing.B) {
	b.ReportAllocs()
	frames := benchFrames()
	g := benchGraph(frames)
	var sc ConnScratch
	for _, f := range frames {
		sc.RefreshInto(g, f, benchRadius)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.RefreshInto(g, frames[i%len(frames)], benchRadius)
	}
}

// BenchmarkConnectivityFirstRefresh measures a run's first refresh: a
// fresh graph and scratch each iteration, so RefreshInto builds the
// whole link table from nothing, as every scenario does when it arms
// its arena. Building the edgeless graph is part of each iteration.
func BenchmarkConnectivityFirstRefresh(b *testing.B) {
	b.ReportAllocs()
	frames := benchFrames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sc ConnScratch
		sc.RefreshInto(benchGraph(frames), frames[i%len(frames)], benchRadius)
	}
}

// BenchmarkPartitionProbe measures Graph.Connected, the partition probe
// every mobility refresh runs, on the S1-scale radio graph. About half
// the frame cycle's frames are connected; the probe times the first one
// that is, so both the forward and the reverse flood run — the probe's
// worst case. Its allocs/op is a small constant — the visited set, the
// queue and the in-link adjacency — independent of the fleet size.
func BenchmarkPartitionProbe(b *testing.B) {
	b.ReportAllocs()
	frames := benchFrames()
	g := benchGraph(frames)
	var sc ConnScratch
	for _, f := range frames {
		sc.RefreshInto(g, f, benchRadius)
		if g.Connected() {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Connected()
	}
}

// BenchmarkMobilityStep measures pure position advancement into a
// caller-owned buffer for the 1000-ship fleet — the physical layer's
// per-refresh floor. 0 allocs/op once the buffer has grown.
func BenchmarkMobilityStep(b *testing.B) {
	b.ReportAllocs()
	m := benchModel()
	var pos []topo.Point
	pos = m.StepInto(pos, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos = m.StepInto(pos, 0.1)
	}
}
