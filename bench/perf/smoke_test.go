package perf

import (
	"os"
	"path/filepath"
	"testing"

	"viator"
)

// benchmarkJSON is the benchmark definition at the repository root.
const benchmarkJSON = "../../BENCHMARK.json"

// TestSmoke runs every workload at smoke size — one operation per phase,
// seed 42 so each output is checked against its stored digest — through
// the same code path as a full run, untraced and traced. Every metric
// BENCHMARK.json names must come out with its declared unit, and no
// operation may fail.
func TestSmoke(t *testing.T) {
	spec, err := LoadBenchSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(spec.Workloads), len(Workloads()); got != want {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", got, want)
	}
	for _, sw := range spec.Workloads {
		if _, ok := Lookup(sw.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not a benchmark workload", sw.Name)
		}
	}
	digests, err := StoredDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			if w.Large && testing.Short() {
				t.Skip("large workload skipped in -short mode")
			}
			for _, traced := range []bool{false, true} {
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				res, err := Run(w, Options{
					Seed: DigestBaseSeed, Seconds: 0.01, MaxOps: 1, Trace: traced,
					TraceDir: t.TempDir(), Digests: digests,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%t: correct %t, %d of %d operations failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%t: %d metrics, BENCHMARK.json declares %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%t: metric %s missing", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("traced=%t: metric %s in %s, BENCHMARK.json says %s", traced, m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			}
		})
	}
}

// TestStoredDigestsMatchGoldens ties the digest table to the repository's
// golden S1/S2 tables: the batch run whose table is the golden must
// digest to the stored value.
func TestStoredDigestsMatchGoldens(t *testing.T) {
	digests, err := StoredDigests()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ scenario, table, golden string }{
		{"s1", "s1-metropolis", "S1_table_seed42.txt"},
		{"s2", "s2-megalopolis", "S2_table_seed42.txt"},
	}
	for _, c := range cases {
		if c.scenario == "s2" && testing.Short() {
			continue
		}
		sc, _ := viator.BuiltinScenario(c.scenario)
		res := sc.Run(DigestBaseSeed)
		golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenario", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if res.Table().String() != string(golden) {
			t.Errorf("%s seed %d: table differs from %s", c.scenario, DigestBaseSeed, c.golden)
		}
		if got, want := scenarioDigest(res), digests[c.table][DigestBaseSeed]; got != want {
			t.Errorf("%s seed %d: digest %s, stored %s", c.scenario, DigestBaseSeed, got, want)
		}
	}
}
