package viator

import (
	"fmt"
	"testing"

	"viator/internal/roles"
	"viator/internal/topo"
)

// The root benchmarks run the registry or a whole scenario; each
// substrate micro-benchmark lives in the _test.go of the package it
// measures. `go test -run '^$' -bench . -benchmem ./...` runs them all.

// One benchmark per paper artifact, enumerated from the registry so the
// benchmark set can never drift from what the harness runs: `go test
// -bench=Experiment` regenerates every table and figure. The per-op cost
// is the cost of reproducing that artifact end to end.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range DefaultRegistry().Experiments() {
		if e.Heavy {
			continue // continent-scale; BenchmarkShardScenarioS3S runs its smoke variant
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
	benchReplicated(b, "E5", 8)
}

// BenchmarkE1Replicated measures the end-to-end harness path the paper
// tables actually pay for: a full E1 run replicated over 4 seeds with
// per-cell aggregation.
func BenchmarkE1Replicated(b *testing.B) {
	benchReplicated(b, "E1", 4)
}

func benchReplicated(b *testing.B, id string, reps int) {
	reg := DefaultRegistry()
	for i := 0; i < b.N; i++ {
		if _, err := reg.RunReplicated([]string{id}, reps, 42, 0); err != nil {
			b.Fatal(err)
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

// BenchmarkShardScenarioS3S runs the S3 smoke continent (10,000 ships in
// 8 districts) at 1/2/4/8 shard kernels over the same model workload
// (same districts, fleets, trunks and traffic processes at every K), so
// the K=1 → K=8 wall-clock ratio is a parallel-speedup measurement that
// tracks the core count (~1× on a single-core runner).
func BenchmarkShardScenarioS3S(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			SetShardOverride(k)
			defer SetShardOverride(0)
			for i := 0; i < b.N; i++ {
				if !scenarioS3S.Run(42).Pass() {
					b.Fatalf("S3S assertions failed at K=%d", k)
				}
			}
		})
	}
}
