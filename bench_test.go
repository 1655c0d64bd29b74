package viator

import (
	"fmt"
	"testing"

	"viator/internal/benchprobe"
	"viator/internal/hw"
	"viator/internal/netsim"
	"viator/internal/roles"
	"viator/internal/shuttle"
	"viator/internal/sim"
	"viator/internal/spec"
	"viator/internal/topo"
	"viator/internal/vm"
)

// One benchmark per paper artifact, enumerated from the registry so the
// benchmark set can never drift from what the harness runs: `go test
// -bench=Experiment` regenerates every table and figure. The per-op cost
// is the cost of reproducing that artifact end to end.

func BenchmarkExperiment(b *testing.B) {
	for _, e := range DefaultRegistry().Experiments() {
		if e.Heavy {
			continue // continent-scale; benchmarked via the shard suite instead
		}
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Check(e.Run(42)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicatedHarness measures the full multi-seed harness path on
// one experiment: 8 replicates fanned out over the worker pool plus the
// per-cell mean ± CI aggregation.
func BenchmarkReplicatedHarness(b *testing.B) {
	reg := DefaultRegistry()
	for i := 0; i < b.N; i++ {
		if _, err := reg.RunReplicated([]string{"E5"}, 8, 42, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks: the building blocks' raw costs ---

// BenchmarkKernelEventThroughput is the historical name for the kernel
// schedule/fire benchmark; it delegates to the shared body so the loop
// exists in exactly one place.
func BenchmarkKernelEventThroughput(b *testing.B) {
	benchprobe.KernelScheduleFire(b)
}

// BenchmarkKernel measures the event arena's schedule/fire and cancel
// paths in steady state, where every slot comes off the free list. The
// alloc figures are the point: zero per event. The schedule/fire body is
// shared with `viatorbench -bench` via internal/benchprobe.
func BenchmarkKernel(b *testing.B) {
	b.Run("ScheduleFire", benchprobe.KernelScheduleFire)
	b.Run("ScheduleCancel", func(b *testing.B) {
		b.ReportAllocs()
		k := sim.NewKernel(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.After(1, func() {}).Cancel()
			if k.Pending() > 1024 {
				k.Run(k.Now() + 0.5)
			}
		}
		k.Drain()
	})
	b.Run("Ticker", func(b *testing.B) {
		b.ReportAllocs()
		k := sim.NewKernel(1)
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

// BenchmarkNetsim measures the per-packet transmit path: enqueue onto a
// link's ring queue, one serialization event, one arrival event, delivery
// through the persistent per-link state machine. The single alloc/op is
// the packet itself.
func BenchmarkNetsim(b *testing.B) {
	b.Run("SendDeliver", benchprobe.NetsimSendDeliver)
	b.Run("Forwarding", func(b *testing.B) {
		// Multi-hop: every delivery re-sends until the chain end, so one
		// op exercises queueing, arrival and the receive callback 4×.
		b.ReportAllocs()
		k := sim.NewKernel(1)
		g := topo.Line(5)
		n := netsim.New(k, g)
		n.SetAllLinkProps(netsim.LinkProps{Bandwidth: 1e9, Delay: 0.0001, QueueCap: 1 << 30})
		n.OnReceive(func(at topo.NodeID, p *netsim.Packet) {
			if at != p.Dst {
				n.Send(at, at+1, p)
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Send(0, 1, n.NewPacket(0, 4, 1000, "bench", nil))
			if i%256 == 255 {
				k.Drain()
			}
		}
		k.Drain()
	})
}

// BenchmarkE1Replicated measures the end-to-end harness path the paper
// tables actually pay for: a full E1 run replicated over 4 seeds with
// per-cell aggregation.
func BenchmarkE1Replicated(b *testing.B) {
	reg := DefaultRegistry()
	benchprobe.Replicated(b, func() error {
		_, err := reg.RunReplicated([]string{"E1"}, 4, 42, 0)
		return err
	})
}

func BenchmarkVMExecution(b *testing.B) {
	p := vm.MustAssemble(`
		PUSH 100
		STORE 0
	loop:
		LOAD 0
		JZ done
		LOAD 0
		PUSH 1
		SUB
		STORE 0
		JMP loop
	done:
		HALT`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.NewMachine(p, 10000).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShuttleCodec(b *testing.B) {
	sh := shuttle.New(1, shuttle.Gene, 0, 1, 2)
	sh.CodeID = "svc"
	sh.Code = make([]byte, 256)
	sh.Data = make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shuttle.Decode(sh.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricReconfigure(b *testing.B) {
	f := hw.NewFabric(8, 64)
	bs := hw.Parity(8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bs.ApplyAt(f, i%32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricEval(b *testing.B) {
	f := hw.NewFabric(8, 64)
	if err := hw.Parity(8, 8).ApplyAt(f, 0); err != nil {
		b.Fatal(err)
	}
	in := make([]bool, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in[0] = i&1 != 0
		if _, err := f.Eval(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptivePulse measures the adaptive control plane at S1 scale
// (1000 nodes, ~16k links, 2 overlays): the gated no-op pulse, the
// sparse-traffic lazy cycle toward far and toward near (three-hop)
// destinations, and the eager all-pairs Rebuild that replaced the
// clone-per-overlay recomputation. Bodies are shared with
// `viatorbench -bench-routing` via internal/benchprobe.
func BenchmarkAdaptivePulse(b *testing.B) {
	b.Run("Steady", benchprobe.AdaptivePulseSteady(42))
	b.Run("LazySparse", benchprobe.AdaptivePulseLazySparse(42))
	b.Run("LazyLocal", benchprobe.AdaptivePulseLazyLocal(42))
	b.Run("Rebuild", benchprobe.AdaptivePulseRebuild(42))
}

// BenchmarkAdaptiveNextHop measures the warm-table forwarding lookup —
// the per-hop per-packet control-plane cost. 0 allocs/op.
func BenchmarkAdaptiveNextHop(b *testing.B) {
	benchprobe.AdaptiveNextHop(42)(b)
}

// BenchmarkConnectivity{Oracle,Grid,Incremental} measure the radio-range
// refresh at S1 scale (1000 mobile ships, radius 75) in its three forms:
// the brute-force O(n²) oracle, the spatial-hash grid path (same flap
// semantics), and the incremental diff path the simulation loop runs
// (0 allocs/op in steady state). All three replay the same fixed frame
// cycle, so the numbers are directly comparable. Bodies are shared with
// `viatorbench -bench-mobility` via internal/benchprobe.
func BenchmarkConnectivityOracle(b *testing.B)      { benchprobe.ConnectivityOracle(42)(b) }
func BenchmarkConnectivityGrid(b *testing.B)        { benchprobe.ConnectivityGrid(42)(b) }
func BenchmarkConnectivityIncremental(b *testing.B) { benchprobe.ConnectivityIncremental(42)(b) }

// BenchmarkPartitionProbe measures Graph.Connected on the S1-scale
// radio graph — the partition probe every connectivity refresh runs —
// at a small constant allocs/op. Body shared with `viatorbench -bench
// mobility` via internal/benchprobe.
func BenchmarkPartitionProbe(b *testing.B) { benchprobe.PartitionProbe(42)(b) }

// BenchmarkMobilityStep measures pure position advancement for the
// 1000-ship fleet — the physical layer's per-refresh floor.
func BenchmarkMobilityStep(b *testing.B) {
	benchprobe.MobilityStep(42)(b)
}

// Benchmark{HistObserve,HistQuantile,HistMerge,RecorderTick,
// ScorecardDelivered} measure the streaming-telemetry hot paths: the
// fixed-memory histogram's observe/quantile/merge, one flight-recorder
// tick at stress-scenario width, and the per-delivery QoS scorecard.
// Every observe-side path is 0 allocs/op — the property that lets
// telemetry ride the packet hot path. Bodies are shared with
// `viatorbench -bench telemetry` via internal/benchprobe.
func BenchmarkHistObserve(b *testing.B)        { benchprobe.HistObserve(b) }
func BenchmarkHistQuantile(b *testing.B)       { benchprobe.HistQuantile(b) }
func BenchmarkHistMerge(b *testing.B)          { benchprobe.HistMerge(b) }
func BenchmarkRecorderTick(b *testing.B)       { benchprobe.RecorderTick(b) }
func BenchmarkScorecardDelivered(b *testing.B) { benchprobe.ScorecardDelivered(b) }

// BenchmarkPrinciples* measure the principle engines' steady-state hot
// paths at the S2 fleet size, each next to a body doing the
// pre-refactor per-op work (Describe-based probes, map-keyed pair
// counts, full-table emergence scans, linear subscription scans) — the
// speedup evidence for the scale-discipline refactor. Bodies are shared
// with `viatorbench -bench principles` via internal/benchprobe.
func BenchmarkPrinciplesGossipRound(b *testing.B)         { benchprobe.GossipRound(42)(b) }
func BenchmarkPrinciplesGossipRoundDescribe(b *testing.B) { benchprobe.GossipRoundDescribe(42)(b) }
func BenchmarkPrinciplesFormClustersSteady(b *testing.B)  { benchprobe.FormClustersSteady(42)(b) }
func BenchmarkPrinciplesFormClustersRebuild(b *testing.B) { benchprobe.FormClustersRebuild(42)(b) }
func BenchmarkPrinciplesFormClustersScan(b *testing.B)    { benchprobe.FormClustersScan(42)(b) }
func BenchmarkPrinciplesObserveFacts(b *testing.B)        { benchprobe.ObserveFacts(42)(b) }
func BenchmarkPrinciplesObserveFactsMap(b *testing.B)     { benchprobe.ObserveFactsMap(42)(b) }
func BenchmarkPrinciplesEmergeFrontier(b *testing.B)      { benchprobe.EmergeFrontier(42)(b) }
func BenchmarkPrinciplesEmergeScan(b *testing.B)          { benchprobe.EmergeScan(42)(b) }
func BenchmarkPrinciplesFeedbackPublishKey(b *testing.B)  { benchprobe.FeedbackPublishKey(b) }
func BenchmarkPrinciplesFeedbackPublishScan(b *testing.B) { benchprobe.FeedbackPublishScan(b) }
func BenchmarkPrinciplesMetamorphPulse(b *testing.B)      { benchprobe.MetamorphPulse(42)(b) }

func BenchmarkRoleFusionPipeline(b *testing.B) {
	f := roles.NewFuser(4, 0.25)
	c := roles.Chunk{Stream: "s", Bytes: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Seq = i
		f.Process(c)
	}
}

func BenchmarkSpecStateExploration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := spec.New(spec.Config{N: 4, Budget: 2})
		if !p.CheckSafety(0).OK() {
			b.Fatal("violation")
		}
	}
}

func BenchmarkJetEpidemic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(16, uint64(i))
		cfg.Graph = topo.Grid(4, 4)
		n := NewNetwork(cfg)
		n.InjectJet(0, roles.Boosting, 3)
		n.Run(10)
	}
}

// BenchmarkShard* measure the space-partitioned executor. The substrate
// pair exercises the ShardGroup's windowed protocol and raw mailbox
// cycle; the end-to-end sweep runs the S3 smoke continent (10,000 ships
// in 8 districts) at 1/2/4/8 shard kernels over the same model workload
// (same districts, fleets, trunks and traffic processes at every K), so
// the K=1 → K=8 wall-clock ratio is a parallel-speedup measurement that
// tracks the core count (~1× on a single-core runner). Bodies are
// shared with `viatorbench -bench shard` via internal/benchprobe.
func BenchmarkShardGroupWindowed(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), benchprobe.ShardGroupWindowed(k, 64))
	}
}

func BenchmarkShardMailbox(b *testing.B) { benchprobe.ShardMailbox(b) }

func BenchmarkShardScenarioS3S(b *testing.B) {
	sc := ScenarioS3Smoke()
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			SetShardOverride(k)
			defer SetShardOverride(0)
			benchprobe.ShardEndToEnd(b, func() error {
				res := sc.Run(42)
				if !res.Pass() {
					return fmt.Errorf("S3S assertions failed at K=%d", k)
				}
				return nil
			})
		})
	}
}
