package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// miniSpec is a sub-second scenario used to exercise the CLI paths
// without paying for a stress-scale run.
const miniSpec = `{
  "name": "mini",
  "title": "mini: 8 static ships, uniform trickle",
  "ships": 8,
  "horizon": 1.0,
  "row_every": 0.5,
  "arena": {"kind": "static", "side": 120.0, "radius": 90.0},
  "pulse_period": 1.0,
  "telemetry_tick": 0.5,
  "traffic": [{"kind": "uniform", "period": 0.1}],
  "asserts": {"min_delivered": 1}
}
`

// runCLI invokes run() in-process and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func writeSpec(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestListExitsZero(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	for _, want := range []string{"E1", "S1", "S2", "S3", "S3S", "stress", "ablation", "heavy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestBadOnlyExitsTwo(t *testing.T) {
	code, _, errOut := runCLI(t, "-only", "E99")
	if code != 2 {
		t.Fatalf("-only E99: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "E99") {
		t.Fatalf("-only E99: stderr should name the bad id:\n%s", errOut)
	}
	// the -telemetry path validates -only the same way
	code, _, _ = runCLI(t, "-telemetry", filepath.Join(t.TempDir(), "t.jsonl"), "-only", "E99")
	if code != 2 {
		t.Fatalf("-telemetry -only E99: exit %d, want 2", code)
	}
}

func TestCSVAndJSONAreExclusive(t *testing.T) {
	code, _, errOut := runCLI(t, "-csv", "-json")
	if code != 2 {
		t.Fatalf("-csv -json: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "mutually exclusive") {
		t.Fatalf("-csv -json stderr:\n%s", errOut)
	}
}

func TestStrayPositionalExitsTwo(t *testing.T) {
	code, _, errOut := runCLI(t, "kernle")
	if code != 2 {
		t.Fatalf("stray positional: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "kernle") || !strings.Contains(errOut, "unexpected argument") {
		t.Fatalf("stray positional stderr:\n%s", errOut)
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	code, _, _ := runCLI(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}

func TestScenarioHappyPath(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "mini.json", miniSpec)
	code, out, errOut := runCLI(t, "-scenario", path)
	if code != 0 {
		t.Fatalf("-scenario mini: exit %d, want 0\nstderr: %s", code, errOut)
	}
	for _, want := range []string{"# scenario MINI", "t (s)", "PASS replicate 0 (seed 42) min_delivered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-scenario output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("-scenario mini should have no failing verdicts:\n%s", out)
	}
}

func TestScenarioCSV(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "mini.json", miniSpec)
	code, out, _ := runCLI(t, "-scenario", path, "-csv")
	if code != 0 {
		t.Fatalf("-scenario -csv: exit %d, want 0", code)
	}
	if !strings.Contains(out, "t (s),alive frac") {
		t.Fatalf("-scenario -csv should emit a CSV header:\n%s", out)
	}
}

func TestScenarioAssertionFailureExitsOne(t *testing.T) {
	failing := strings.Replace(miniSpec, `"min_delivered": 1`, `"min_delivered": 1000000`, 1)
	path := writeSpec(t, t.TempDir(), "fail.json", failing)
	code, out, _ := runCLI(t, "-scenario", path)
	if code != 1 {
		t.Fatalf("failing assertion: exit %d, want 1", code)
	}
	if !strings.Contains(out, "FAIL replicate 0 (seed 42) min_delivered") {
		t.Fatalf("failing assertion output:\n%s", out)
	}
}

func TestScenarioInvalidSpecExitsTwo(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"syntax.json":  `{"name": "x",`,
		"unknown.json": `{"name": "x", "warp_drive": true}`,
		"semantic.json": strings.Replace(miniSpec,
			`"ships": 8`, `"ships": 1`, 1),
	}
	for name, body := range cases {
		path := writeSpec(t, dir, name, body)
		code, _, errOut := runCLI(t, "-scenario", path)
		if code != 2 {
			t.Fatalf("%s: exit %d, want 2", name, code)
		}
		if !strings.Contains(errOut, "scenario:") {
			t.Fatalf("%s: stderr should carry a positional scenario error:\n%s", name, errOut)
		}
	}
	// unreadable file
	code, _, _ := runCLI(t, "-scenario", filepath.Join(dir, "no-such.json"))
	if code != 2 {
		t.Fatalf("missing spec file: exit %d, want 2", code)
	}
}

func TestScenarioDir(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, "a.json", miniSpec)
	writeSpec(t, dir, "b.json", strings.Replace(miniSpec, `"name": "mini"`, `"name": "mini2"`, 1))
	code, out, _ := runCLI(t, "-scenario-dir", dir)
	if code != 0 {
		t.Fatalf("-scenario-dir: exit %d, want 0", code)
	}
	// specs run in sorted filename order
	ia, ib := strings.Index(out, "# scenario MINI "), strings.Index(out, "# scenario MINI2 ")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("-scenario-dir should run both specs in sorted order:\n%s", out)
	}
}

func TestScenarioDirEmptyExitsTwo(t *testing.T) {
	code, _, errOut := runCLI(t, "-scenario-dir", t.TempDir())
	if code != 2 {
		t.Fatalf("empty -scenario-dir: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "no *.json specs") {
		t.Fatalf("empty -scenario-dir stderr:\n%s", errOut)
	}
}

func TestScenarioModeFlagConflicts(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "mini.json", miniSpec)
	if code, _, _ := runCLI(t, "-scenario", path, "-scenario-dir", filepath.Dir(path)); code != 2 {
		t.Fatalf("-scenario + -scenario-dir: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-scenario", path, "-json"); code != 2 {
		t.Fatalf("-scenario + -json: exit %d, want 2", code)
	}
}

func TestScenarioReplicates(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "mini.json", miniSpec)
	code, out, _ := runCLI(t, "-scenario", path, "-reps", "2", "-workers", "2", "-seed", "7")
	if code != 0 {
		t.Fatalf("-scenario -reps 2: exit %d, want 0", code)
	}
	// reps>1 derives per-replicate seeds from the base seed, so only the
	// replicate indices are stable here
	if !strings.Contains(out, "replicate 0 (seed ") || !strings.Contains(out, "replicate 1 (seed ") {
		t.Fatalf("-reps 2 should print verdicts for both replicates:\n%s", out)
	}
	if !strings.Contains(out, "±") {
		t.Fatalf("-reps 2 table should aggregate cells into mean ±95%% CI:\n%s", out)
	}
}

// shardedMiniSpec declares 4 districts of 4 ships joined by trunks — the
// smallest sharded scenario the CLI paths can run quickly.
const shardedMiniSpec = `{
  "name": "minishard",
  "title": "minishard: 16 ships in 4 trunked districts",
  "ships": 16,
  "horizon": 1.0,
  "row_every": 0.5,
  "arena": {"kind": "static", "side": 60.0, "radius": 50.0},
  "shards": 4,
  "trunk": {"bandwidth": 1048576, "delay": 0.02, "queue_cap": 65536},
  "cross_traffic": {"period": 0.1, "overlay": "backbone"},
  "pulse_period": 1.0,
  "traffic": [{"kind": "uniform", "period": 0.1}],
  "asserts": {"min_delivered": 1}
}
`

// The -shards override: every fixed kernel count replays byte-identical,
// and invalid counts (not dividing the 4 districts) fall back to the
// spec default — one kernel per district — instead of erroring.
func TestScenarioShardsOverride(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "minishard.json", shardedMiniSpec)
	runAt := func(shards string) string {
		t.Helper()
		code, out, errOut := runCLI(t, "-scenario", path, "-shards", shards)
		if code != 0 {
			t.Fatalf("-shards %s: exit %d, want 0\nstderr: %s", shards, code, errOut)
		}
		return out
	}
	// Fixed K replays byte-identical.
	for _, shards := range []string{"1", "2", "4"} {
		if runAt(shards) != runAt(shards) {
			t.Fatalf("-shards %s replay diverged", shards)
		}
	}
	// 0 (spec default), 3 and 99 (invalid for 4 districts) all resolve to
	// one kernel per district.
	def := runAt("0")
	for _, shards := range []string{"4", "3", "99"} {
		if runAt(shards) != def {
			t.Fatalf("-shards %s should resolve to the spec default (4 kernels)", shards)
		}
	}
}

// -shards must leave unsharded specs alone.
func TestShardsFlagIgnoredByUnshardedSpec(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "mini.json", miniSpec)
	_, want, _ := runCLI(t, "-scenario", path)
	code, got, _ := runCLI(t, "-scenario", path, "-shards", "4")
	if code != 0 {
		t.Fatalf("-shards on unsharded spec: exit %d, want 0", code)
	}
	if got != want {
		t.Fatal("-shards changed an unsharded scenario's output")
	}
}

// TestTelemetryUnwritableOutputFailsFast pins the -telemetry fail-fast
// contract: an unwritable destination must be rejected before any
// experiment runs (the destinations are created up front), so the exit
// is immediate and code 1.
func TestTelemetryUnwritableOutputFailsFast(t *testing.T) {
	cases := []struct {
		name string
		path string
	}{
		{"missing parent dir", filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl")},
		{"directory as file", t.TempDir()},
	}
	for _, c := range cases {
		code, _, errOut := runCLI(t, "-telemetry", c.path, "-only", "S1", "-reps", "1")
		if code != 1 {
			t.Fatalf("%s: exit %d, want 1", c.name, code)
		}
		if errOut == "" {
			t.Fatalf("%s: no error on stderr", c.name)
		}
	}
}

// TestTelemetryNoProviderExitsOne: a valid selection with no
// telemetry-capable experiment is an error, and the pre-created
// destination files must not be left behind.
func TestTelemetryNoProviderExitsOne(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.jsonl")
	code, _, errOut := runCLI(t, "-telemetry", out, "-only", "E1")
	if code != 1 {
		t.Fatalf("-telemetry -only E1: exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "no telemetry-capable") {
		t.Fatalf("stderr should explain the empty selection:\n%s", errOut)
	}
	for _, p := range []string{out, strings.TrimSuffix(out, ".jsonl") + ".prom"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s left behind after failed export (err=%v)", p, err)
		}
	}
}
