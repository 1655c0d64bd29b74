package viator

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"viator/internal/scenario"
)

// readGolden loads one pre-refactor golden from testdata/scenario. The
// files were captured from the hand-written RunS1/RunS2 mains before
// they were re-expressed as scenario specs, so these tests prove the
// spec compiler reproduces the originals byte for byte.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "scenario", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func diffBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s diverges from golden at line %d:\ngot:  %q\nwant: %q", what, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s diverges from golden in length: got %d bytes, want %d", what, len(got), len(want))
}

// TestScenarioGoldenTables: the spec-compiled S1/S2 registry entries
// reproduce the hand-written tables byte-identically, at the paper seed
// and at a non-paper seed.
func TestScenarioGoldenTables(t *testing.T) {
	reg := DefaultRegistry()
	s1, _ := reg.Get("S1")
	diffBytes(t, "S1 table seed 42", []byte(s1.Run(42).String()), readGolden(t, "S1_table_seed42.txt"))
	diffBytes(t, "S1 table seed 7", []byte(s1.Run(7).String()), readGolden(t, "S1_table_seed7.txt"))
	if testing.Short() {
		t.Skip("skipping 10k-ship S2 golden in -short mode")
	}
	s2, _ := reg.Get("S2")
	diffBytes(t, "S2 table seed 42", []byte(s2.Run(42).String()), readGolden(t, "S2_table_seed42.txt"))
}

// TestCatalogGoldenTables pins E3 and E6 at the paper seed byte for
// byte: they are where a role switch's latency and a ship's generation
// reach the catalog.
func TestCatalogGoldenTables(t *testing.T) {
	for name, got := range map[string]*Table{
		"E3_table_seed42.txt": RunE3(42).Table(),
		"E6_table_seed42.txt": RunE6(42).Table(),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "catalog", name))
		if err != nil {
			t.Fatal(err)
		}
		diffBytes(t, name, []byte(got.String()), want)
	}
}

// TestScenarioRoutingWork pins the adaptive router's work in S1 and S2
// at seed 42: the sink trees built (one per overlay, epoch and queried
// destination), the source trees built, and the queries a source tree
// answered because the sink answer was tied. The counts are
// deterministic; a routing change that builds more trees shows here
// before it shows in a benchmark.
func TestScenarioRoutingWork(t *testing.T) {
	for _, c := range []struct {
		name                      string
		sinks, sources, fallbacks uint64
	}{
		{"s1", 837, 0, 0},
		{"s2", 654, 0, 0},
	} {
		if c.name == "s2" && testing.Short() {
			t.Skip("skipping 10k-ship S2 in -short mode")
		}
		sc, _ := BuiltinScenario(c.name)
		h := StartScenario(sc, 42)
		h.Finish()
		r := h.r.ds[0].n.Router
		if r.SinkBuilds != c.sinks || r.SourceBuilds != c.sources || r.TieFallbacks != c.fallbacks {
			t.Fatalf("%s: sink/source trees %d/%d, tie fallbacks %d; want %d/%d, %d", c.name,
				r.SinkBuilds, r.SourceBuilds, r.TieFallbacks, c.sinks, c.sources, c.fallbacks)
		}
	}
}

// TestScenarioGoldenReplicated: the replicated aggregates (derived seed
// stream, mean ±95% CI cells) are byte-identical to the pre-refactor
// capture, independent of the worker count.
func TestScenarioGoldenReplicated(t *testing.T) {
	ids := []string{"S1"}
	if !testing.Short() {
		ids = append(ids, "S2")
	}
	for _, id := range ids {
		want := readGolden(t, id+"_replicated_seed42_reps2.json")
		for _, workers := range []int{1, 3} {
			res, err := DefaultRegistry().RunReplicated([]string{id}, 2, 42, workers)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			diffBytes(t, id+" replicated (workers="+string(rune('0'+workers))+")", append(b, '\n'), want)
		}
	}
}

// TestScenarioGoldenTelemetry: the telemetry export (per-replicate +
// merged JSONL, Prometheus snapshot) of the spec-compiled scenarios is
// byte-identical to the hand-written versions' capture.
func TestScenarioGoldenTelemetry(t *testing.T) {
	cases := []struct {
		id   string
		reps int
	}{{"S1", 2}}
	if !testing.Short() {
		cases = append(cases, struct {
			id   string
			reps int
		}{"S2", 1})
	}
	for _, c := range cases {
		results, err := DefaultRegistry().CollectTelemetry([]string{c.id}, c.reps, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		var jl, prom bytes.Buffer
		for _, tr := range results {
			if err := tr.WriteJSONL(&jl); err != nil {
				t.Fatal(err)
			}
		}
		if err := WritePromSnapshot(&prom, results); err != nil {
			t.Fatal(err)
		}
		base := c.id + "_telemetry_seed42_reps" + string(rune('0'+c.reps))
		diffBytes(t, base+".jsonl", jl.Bytes(), readGolden(t, base+".jsonl"))
		diffBytes(t, base+".prom", prom.Bytes(), readGolden(t, base+".prom"))
	}
}

// propertySpec is a cheap but feature-dense scenario for the
// cross-worker determinism property: churn, healing, three traffic
// generators (two overlays), a fault, telemetry and assertions.
const propertySpec = `{
  "name": "prop",
  "title": "prop: cross-worker determinism probe",
  "ships": 32,
  "horizon": 4.0,
  "row_every": 1.0,
  "arena": {"kind": "static", "side": 260.0, "radius": 90.0},
  "pulse_period": 1.0,
  "heal_period": 1.0,
  "telemetry_tick": 0.5,
  "slo": {"quantile": 0.95, "max_latency": 0.100, "min_delivery_ratio": 0.30},
  "jets": [{"at": 0, "role": "caching", "fanout": 2}],
  "churn": {"period": 0.5},
  "traffic": [
    {"kind": "uniform", "period": 0.05},
    {"kind": "poisson", "rate": 10, "overlay": "bg"},
    {"kind": "cbr", "rate": 4, "src": 3, "dst": 17, "overlay": "stream"}
  ],
  "faults": [{"at": 2.0, "kind": "kill_node", "node": 5}],
  "asserts": {
    "flows": [{"flow": "", "min_delivery_ratio": 0.30}],
    "min_delivered": 1
  }
}
`

// renderScenario materializes everything RunScenarioReplicated produces
// — aggregated table, per-replicate trajectory tables, verdicts and the
// full telemetry dumps — as one byte blob for cross-worker comparison.
func renderScenario(t *testing.T, workers int) []byte {
	t.Helper()
	sc, err := ParseScenario([]byte(propertySpec))
	if err != nil {
		t.Fatal(err)
	}
	agg, runs, err := RunScenarioReplicated(sc, 3, 42, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(agg.Table().String())
	for _, rep := range runs {
		buf.WriteString(rep.Res.Table().String())
		for _, v := range rep.Res.Verdicts {
			if err := json.NewEncoder(&buf).Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := json.NewEncoder(&buf).Encode(rep.Res.Dump); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestScenarioByteIdenticalAcrossWorkers is the scheduling-independence
// property for the scenario layer: same spec + same base seed must give
// byte-identical tables, verdicts and telemetry whatever the worker
// count (CI also replays the whole test binary under -shuffle=on).
func TestScenarioByteIdenticalAcrossWorkers(t *testing.T) {
	w1 := renderScenario(t, 1)
	for _, workers := range []int{3, 4} {
		if wn := renderScenario(t, workers); !bytes.Equal(w1, wn) {
			t.Fatalf("scenario output differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestAdversarialSuitePasses runs every shipped adversarial spec at the
// paper seed and requires all of its assertions to hold — the same gate
// CI applies through `viatorbench -scenario-dir scenarios/adversarial`.
func TestAdversarialSuitePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping adversarial suite in -short mode")
	}
	paths, err := filepath.Glob(filepath.Join("scenarios", "adversarial", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("want >= 5 adversarial specs, found %d: %v", len(paths), paths)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := ParseScenario(data)
			if err != nil {
				t.Fatal(err)
			}
			res := sc.Run(42)
			if len(res.Verdicts) == 0 {
				t.Fatal("adversarial spec must carry at least one assertion")
			}
			for _, v := range res.Verdicts {
				if !v.Pass {
					t.Errorf("FAIL %s: %s", v.Name, v.Detail)
				}
			}
		})
	}
}

// ghostFlowSpec asserts on an overlay ("ghost") whose only generator
// opens after the horizon, so no traffic ever touches the flow.
const ghostFlowSpec = `{
  "name": "ghost",
  "title": "ghost: asserted flow without traffic",
  "ships": 16,
  "horizon": 2.0,
  "row_every": 1.0,
  "arena": {"kind": "static", "side": 100.0, "radius": 60.0},
  "pulse_period": 1.0,
  "traffic": [
    {"kind": "uniform", "period": 0.1},
    {"kind": "uniform", "period": 0.1, "overlay": "ghost", "start": 100}
  ],
  "asserts": {"flows": [{"flow": "ghost", "min_delivery_ratio": 0.5}]}
}`

// TestAssertedFlowExportedWithoutTraffic: evaluating a flow assertion
// registers the flow in the run's own scorecards before the telemetry
// dump is rendered, so the JSONL export carries a line for an asserted
// flow that never saw traffic, and the verdict is the vacuous pass.
func TestAssertedFlowExportedWithoutTraffic(t *testing.T) {
	sc, err := ParseScenario([]byte(ghostFlowSpec))
	if err != nil {
		t.Fatal(err)
	}
	res := sc.Run(3)
	want := []scenario.Verdict{{Name: `flow "ghost" slo`, Pass: true, Detail: "delivered 0/0 (ratio 1.000)"}}
	if !reflect.DeepEqual(res.Verdicts, want) {
		t.Fatalf("verdicts = %+v, want %+v", res.Verdicts, want)
	}
	var jl bytes.Buffer
	if err := res.Dump.WriteJSONL(&jl, ""); err != nil {
		t.Fatal(err)
	}
	line := `{"kind":"flow","name":"ghost","sent":0,"delivered":0,"ratio":1,"p50":0,"p95":0,"p99":0,"slo_pass":true}`
	if !strings.Contains(jl.String(), line+"\n") {
		t.Fatalf("telemetry JSONL lacks the asserted flow line %s:\n%s", line, jl.String())
	}
}

// TestBuiltinSpecsMatchEmbeddedFiles: the embedded scenarios/s1.json and
// s2.json stay in sync with the on-disk copies the docs point at.
func TestBuiltinSpecsMatchEmbeddedFiles(t *testing.T) {
	for _, name := range []string{"s1.json", "s2.json"} {
		disk, err := os.ReadFile(filepath.Join("scenarios", name))
		if err != nil {
			t.Fatal(err)
		}
		embedded, err := builtinSpecFS.ReadFile("scenarios/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(disk, embedded) {
			t.Fatalf("%s: embedded copy differs from on-disk file", name)
		}
	}
	if scenarioS1.ScenarioID() != "S1" || scenarioS2.ScenarioID() != "S2" {
		t.Fatalf("builtin scenario ids: %s, %s", scenarioS1.ScenarioID(), scenarioS2.ScenarioID())
	}
}

// TestParseScenarioErrors: the compile path surfaces spec errors rather
// than panicking, and rejects replication misuse.
func TestParseScenarioErrors(t *testing.T) {
	if _, err := ParseScenario([]byte(`{`)); err == nil {
		t.Fatal("ParseScenario should reject malformed JSON")
	}
	if _, err := ParseScenario([]byte(`{"name": "x"}`)); err == nil {
		t.Fatal("ParseScenario should reject invalid specs")
	}
	bad := strings.Replace(propertySpec, `"role": "caching"`, `"role": "captain"`, 1)
	if _, err := ParseScenario([]byte(bad)); err == nil || !strings.Contains(err.Error(), "captain") {
		t.Fatalf("unknown role should fail compile, got: %v", err)
	}
	sc, err := ParseScenario([]byte(propertySpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunScenarioReplicated(sc, 0, 42, 1); err == nil {
		t.Fatal("RunScenarioReplicated should reject reps < 1")
	}
}
