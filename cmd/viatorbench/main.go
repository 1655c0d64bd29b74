// Command viatorbench regenerates every table and figure of the paper's
// reproduction. Experiments come from the viator registry (E1–E12, the
// A1–A4 ablation sweeps and the S1/S2 stress scenarios); with -reps N each
// experiment is replicated over N deterministic seeds in parallel and every
// numeric cell is reported as mean ± 95% CI. Output is aligned text, CSV
// (-csv) or JSON (-json); for a fixed (-seed, -reps) pair the output is
// byte-identical across invocations and across -workers values.
//
// -scenario file.json runs one declarative scenario spec (the
// internal/scenario DSL — the same compiler behind the registry's S1/S2
// entries) and prints its trajectory table plus the spec's assertion
// verdicts; -scenario-dir runs every *.json spec in a directory as a
// suite. The process exits 1 if any replicate fails an assertion and 2
// for unparseable or invalid specs, so scenario suites gate CI directly.
//
// -shards K overrides how many shard kernels execute scenarios whose spec
// declares districts (shards > 1): K must divide the district count (other
// values fall back to one kernel per district). A fixed (spec, seed, K)
// replays byte-identical across runs and across -workers; unsharded specs
// like S1/S2 are never affected.
//
// -telemetry out.jsonl switches to the streaming-telemetry export: the
// telemetry-capable experiments in the selection (default: all of them —
// the stress scenarios) run -reps times and their flight-recorder series,
// latency/queue-depth histograms and per-flow QoS scorecards are written
// as JSON-lines to out.jsonl, with a Prometheus text snapshot of the
// pooled cross-replicate merge beside it (out.prom). Like the tables, the
// export is byte-identical across -workers values.
//
// Micro-benchmarks are plain `go test -bench` benchmarks beside the code
// they measure (`go test -run '^$' -bench . -benchmem ./...`); the
// end-to-end performance ledger is bench/run.sh.
//
// Usage:
//
//	viatorbench [-seed N] [-reps N] [-workers K] [-shards K] [-csv|-json] [-only E5,E11] [-ablations] [-stress] [-list]
//	viatorbench -scenario file.json | -scenario-dir dir [-seed N] [-reps N] [-workers K] [-shards K]
//	viatorbench -telemetry out.jsonl [-only S1] [-reps N] [-workers K]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"viator"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind an exit code, with output injected so the
// flag-handling and scenario paths are testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viatorbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "base seed (equal seeds replay exactly)")
	reps := fs.Int("reps", 1, "replicates per experiment; >1 aggregates numeric cells into mean ±95% CI")
	workers := fs.Int("workers", 0, "parallel replicate workers (0 = GOMAXPROCS); never affects results")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of aligned tables")
	only := fs.String("only", "", "comma-separated experiment ids to run (e.g. E1,E5); empty = all paper experiments")
	ablations := fs.Bool("ablations", false, "also run the design-knob ablation sweeps A1-A4")
	stress := fs.Bool("stress", false, "also run the stress/scale scenarios (S1, S2, S3S; heavy ones like S3 need -only)")
	list := fs.Bool("list", false, "list registered experiment ids and exit")
	shards := fs.Int("shards", 0, "shard kernels for sharded scenarios (0 = one per district; must divide the district count); fixed values replay exactly, unsharded specs unaffected")
	telemetryOut := fs.String("telemetry", "", "export streaming telemetry for the selected telemetry-capable experiments as JSON-lines to this file (plus a Prometheus snapshot beside it)")
	scenarioFile := fs.String("scenario", "", "run one declarative scenario spec (JSON) and evaluate its assertions")
	scenarioDir := fs.String("scenario-dir", "", "run every *.json scenario spec in this directory as a suite")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		// Every option is a flag; refuse a stray positional instead of
		// guessing what it meant.
		fmt.Fprintf(stderr, "viatorbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	viator.SetShardOverride(*shards)

	if *csv && *jsonOut {
		fmt.Fprintln(stderr, "viatorbench: -csv and -json are mutually exclusive")
		return 2
	}

	if *scenarioFile != "" || *scenarioDir != "" {
		if *scenarioFile != "" && *scenarioDir != "" {
			fmt.Fprintln(stderr, "viatorbench: -scenario and -scenario-dir are mutually exclusive")
			return 2
		}
		if *jsonOut {
			fmt.Fprintln(stderr, "viatorbench: scenario mode emits tables + verdicts (use -csv for CSV tables; -json is not supported)")
			return 2
		}
		paths := []string{*scenarioFile}
		if *scenarioDir != "" {
			var err error
			paths, err = filepath.Glob(filepath.Join(*scenarioDir, "*.json"))
			if err != nil || len(paths) == 0 {
				fmt.Fprintf(stderr, "viatorbench: no *.json specs in %q\n", *scenarioDir)
				return 2
			}
			sort.Strings(paths)
		}
		return runScenarios(paths, *reps, *seed, *workers, *csv, stdout, stderr)
	}

	reg := viator.DefaultRegistry()
	if *list {
		for _, e := range reg.Experiments() {
			kind := "paper"
			switch {
			case e.Ablation:
				kind = "ablation"
			case e.Heavy:
				kind = "heavy"
			case e.Stress:
				kind = "stress"
			}
			fmt.Fprintf(stdout, "%-4s %-9s %s\n", e.ID, kind, e.Title)
		}
		return 0
	}

	if *telemetryOut != "" {
		tids := splitIDs(*only)
		if _, err := reg.Resolve(tids); err != nil {
			fmt.Fprintf(stderr, "viatorbench: %v\n", err)
			return 2
		}
		if err := runTelemetryExport(reg, tids, *reps, *seed, *workers, *telemetryOut, stdout); err != nil {
			fmt.Fprintf(stderr, "viatorbench: %v\n", err)
			return 1
		}
		return 0
	}

	var ids []string
	if *only != "" {
		ids = splitIDs(*only)
		if _, err := reg.Resolve(ids); err != nil {
			fmt.Fprintf(stderr, "viatorbench: %v\n", err)
			return 2
		}
	} else {
		for _, e := range reg.Paper() {
			ids = append(ids, e.ID)
		}
	}
	if *ablations {
		// -ablations appends the sweeps whatever the selection, matching
		// the original CLI where it was an independent add-on.
		for _, e := range reg.Ablations() {
			ids = append(ids, e.ID)
		}
	}
	if *stress {
		for _, e := range reg.Stress() {
			ids = append(ids, e.ID)
		}
	}

	results, err := reg.RunReplicated(ids, *reps, *seed, *workers)
	if err != nil {
		fmt.Fprintf(stderr, "viatorbench: %v\n", err)
		return 1
	}

	switch {
	case *jsonOut:
		doc := struct {
			BaseSeed    uint64               `json:"base_seed"`
			Reps        int                  `json:"reps"`
			Experiments []*viator.Replicated `json:"experiments"`
		}{*seed, *reps, results}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(stderr, "viatorbench: %v\n", err)
			return 1
		}
	case *csv:
		for _, a := range results {
			fmt.Fprintf(stdout, "# %s\n%s\n", a.Provenance(), a.Table().CSV())
		}
	default:
		for _, a := range results {
			fmt.Fprintln(stdout, a.Table().String())
		}
	}
	return 0
}

// runScenarios is the -scenario/-scenario-dir mode: compile each spec,
// replicate it with the registry seed discipline, print the aggregated
// trajectory table and every replicate's assertion verdicts. Exit code 2
// for unreadable/invalid specs, 1 if any replicate fails an assertion,
// 0 when every assertion of every spec holds.
func runScenarios(paths []string, reps int, seed uint64, workers int, csv bool, stdout, stderr io.Writer) int {
	failed := false
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "viatorbench: %v\n", err)
			return 2
		}
		sc, err := viator.ParseScenario(data)
		if err != nil {
			fmt.Fprintf(stderr, "viatorbench: %s: %v\n", path, err)
			return 2
		}
		agg, runs, err := viator.RunScenarioReplicated(sc, reps, seed, workers)
		if err != nil {
			fmt.Fprintf(stderr, "viatorbench: %s: %v\n", path, err)
			return 1
		}
		fmt.Fprintf(stdout, "# scenario %s (%s): reps=%d baseSeed=%d\n", sc.ScenarioID(), path, reps, seed)
		if csv {
			fmt.Fprintln(stdout, agg.Table().CSV())
		} else {
			fmt.Fprintln(stdout, agg.Table().String())
		}
		for i, rep := range runs {
			for _, v := range rep.Res.Verdicts {
				status := "PASS"
				if !v.Pass {
					status = "FAIL"
					failed = true
				}
				fmt.Fprintf(stdout, "%s replicate %d (seed %d) %s: %s\n", status, i, rep.Seed, v.Name, v.Detail)
			}
		}
		fmt.Fprintln(stdout)
	}
	if failed {
		return 1
	}
	return 0
}

// splitIDs parses a comma-separated -only value into experiment ids
// (nil for an empty selection).
func splitIDs(only string) []string {
	var ids []string
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// writeInto streams emit's output into an already-created file through a
// buffered writer, surfacing flush/close errors.
func writeInto(f *os.File, emit func(w *bufio.Writer) error) error {
	w := bufio.NewWriter(f)
	if err := emit(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTelemetryExport is the -telemetry mode: collect streaming telemetry
// for the selected (or all) telemetry-capable experiments and write the
// JSON-lines export plus one Prometheus snapshot of the pooled merges.
// Both destinations are created before any experiment runs, so an
// unwritable path fails in milliseconds rather than after the full
// replicate sweep.
func runTelemetryExport(reg *viator.Registry, ids []string, reps int, seed uint64, workers int, path string, stdout io.Writer) error {
	promPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".prom"
	if promPath == path {
		promPath = path + ".prom"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	pf, err := os.Create(promPath)
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	results, err := reg.CollectTelemetry(ids, reps, seed, workers)
	if err != nil {
		f.Close()
		pf.Close()
		os.Remove(path)
		os.Remove(promPath)
		return err
	}
	if err := writeInto(f, func(w *bufio.Writer) error {
		for _, tr := range results {
			if err := tr.WriteJSONL(w); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		pf.Close()
		return err
	}
	if err := writeInto(pf, func(w *bufio.Writer) error {
		return viator.WritePromSnapshot(w, results)
	}); err != nil {
		return err
	}
	for _, tr := range results {
		fmt.Fprintf(stdout, "telemetry: %s reps=%d baseSeed=%d -> %s (JSONL), %s (Prometheus)\n",
			tr.ID, tr.Reps, tr.BaseSeed, path, promPath)
	}
	return nil
}
