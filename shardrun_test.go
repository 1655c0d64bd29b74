package viator

import (
	"strings"
	"testing"
)

// A small sharded spec: 4 districts of 16 ships, trunk mesh, mixed
// intra-district traffic (uniform + a fixed same-district cbr pair) and
// cross-district backbone traffic, churn and healing — every sharded code
// path at a size that keeps the determinism sweeps fast.
const shardTestSpec = `{
  "name": "quad",
  "title": "quad — 64 ships in 4 trunked districts",
  "ships": 64,
  "horizon": 2.0,
  "row_every": 1.0,
  "arena": {"kind": "mobile", "side": 120.0, "radius": 45.0, "refresh": 0.5,
            "min_speed": 2, "max_speed": 8, "pause": 0.5},
  "shards": 4,
  "trunk": {"bandwidth": 1048576, "delay": 0.02, "queue_cap": 65536},
  "cross_traffic": {"period": 0.05, "overlay": "backbone"},
  "pulse_period": 0.5,
  "heal_period": 0.5,
  "slo": {"quantile": 0.95, "max_latency": 0.5, "min_delivery_ratio": 0.1},
  "jets": [
    {"at": 1, "role": "caching", "fanout": 2},
    {"at": 17, "role": "fusion", "fanout": 2}
  ],
  "churn": {"period": 0.4},
  "traffic": [
    {"kind": "uniform", "period": 0.03},
    {"kind": "cbr", "rate": 10, "src": 3, "dst": 9}
  ],
  "asserts": {"min_delivered": 1}
}`

func compileShardTestSpec(t *testing.T) *Scenario {
	t.Helper()
	sc, err := ParseScenario([]byte(shardTestSpec))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// fingerprint reduces a run to a comparable string: the rendered table
// plus every verdict line.
func fingerprint(res *ScenarioResult) string {
	out := res.Table().CSV()
	for _, v := range res.Verdicts {
		out += "\n" + v.Name + "|" + v.Detail
		if v.Pass {
			out += "|pass"
		}
	}
	return out
}

// Fixed (spec, seed, K) must replay byte-identical, for every valid K.
// The recorder ticks a telemetry_tick arms on the shard kernels are
// observational: the ticked variant replays the tick-free fingerprint.
func TestShardedRunDeterministicReplay(t *testing.T) {
	sc := compileShardTestSpec(t)
	ticked, err := ParseScenario([]byte(strings.Replace(shardTestSpec,
		`"pulse_period"`, `"telemetry_tick": 0.25, "pulse_period"`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if ticked.Spec.TelemetryTick != 0.25 {
		t.Fatalf("ticked variant has telemetry_tick %v", ticked.Spec.TelemetryTick)
	}
	defer SetShardOverride(0)
	for _, k := range []int{1, 2, 4} {
		SetShardOverride(k)
		first := fingerprint(sc.Run(11))
		for rep := 0; rep < 2; rep++ {
			if got := fingerprint(sc.Run(11)); got != first {
				t.Fatalf("K=%d replay %d diverged:\n%s\n--- vs ---\n%s", k, rep, got, first)
			}
		}
		if first == "" {
			t.Fatalf("K=%d produced empty fingerprint", k)
		}
		if got := fingerprint(ticked.Run(11)); got != first {
			t.Fatalf("K=%d telemetry_tick variant diverged:\n%s\n--- vs ---\n%s", k, got, first)
		}
	}
}

// An override that does not divide the district count is ignored — the
// run falls back to one kernel per district and must match that output.
func TestShardedRunInvalidOverrideFallsBack(t *testing.T) {
	sc := compileShardTestSpec(t)
	defer SetShardOverride(0)
	SetShardOverride(0)
	def := fingerprint(sc.Run(5))
	for _, k := range []int{3, 5, 64} {
		SetShardOverride(k)
		if got := fingerprint(sc.Run(5)); got != def {
			t.Fatalf("override %d (invalid for 4 districts) changed output", k)
		}
	}
}

// The -shards knob must never touch unsharded specs: S1 output is
// identical whatever the override says.
func TestShardOverrideLeavesUnshardedAlone(t *testing.T) {
	defer SetShardOverride(0)
	SetShardOverride(0)
	want := scenarioS1.Run(3).Table().CSV()
	SetShardOverride(4)
	if got := scenarioS1.Run(3).Table().CSV(); got != want {
		t.Fatal("-shards override perturbed an unsharded scenario")
	}
}

// Sharded results carry no telemetry dump, and the spec's row schedule is
// honored exactly.
func TestShardedRunShapeAndNoDump(t *testing.T) {
	sc := compileShardTestSpec(t)
	defer SetShardOverride(0)
	SetShardOverride(2)
	res := sc.Run(11)
	if res.Dump != nil {
		t.Fatal("sharded run produced a telemetry dump")
	}
	if got, want := len(res.Rows), sc.Spec.NumRows(); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	if len(res.Verdicts) == 0 {
		t.Fatal("no verdicts evaluated")
	}
}

// The replicated harness over a sharded scenario must be independent of
// the worker budget (replicate workers split across shard kernels).
func TestShardedReplicatedWorkerInvariance(t *testing.T) {
	sc := compileShardTestSpec(t)
	defer SetShardOverride(0)
	SetShardOverride(4)
	base, _, err := RunScenarioReplicated(sc, 3, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 8} {
		got, _, err := RunScenarioReplicated(sc, 3, 42, w)
		if err != nil {
			t.Fatal(err)
		}
		if got.Table().CSV() != base.Table().CSV() {
			t.Fatalf("workers=%d changed replicated sharded output", w)
		}
	}
}

// S3S — the CI-sized continent smoke — must run end to end at its
// default kernel count with every assertion passing.
func TestScenarioS3SmokePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("S3S takes a few seconds")
	}
	defer SetShardOverride(0)
	SetShardOverride(0)
	res := scenarioS3S.Run(7)
	if !res.Pass() {
		for _, v := range res.Verdicts {
			t.Logf("%s pass=%v %s", v.Name, v.Pass, v.Detail)
		}
		t.Fatal("S3S assertions failed")
	}
	if got, want := len(res.Rows), scenarioS3S.Spec.NumRows(); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
}
