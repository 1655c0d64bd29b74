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
// -bench <kernel|routing|mobility|telemetry|principles|shard|serve|all> switches
// to the micro-benchmark suites, emitting a JSON document (the
// BENCH_<suite>.json artifacts tracked by CI) instead of tables: `kernel`
// times the kernel schedule/fire path, the per-packet send path and a
// replicated E1 run; `routing` the adaptive control plane at S1 scale;
// `mobility` the physical-layer connectivity refreshes; `telemetry` the
// streaming histogram, flight recorder and QoS scorecard hot paths;
// `principles` the principle engines (gossip, clustering, resonance,
// feedback, metamorphosis) at the S2 fleet size, each paired with its
// pre-refactor per-op cost; `shard` the space-partitioned executor — the
// ShardGroup substrate plus the S3 smoke continent swept across 1/2/4/8
// shard kernels over the same model workload, so the K=1 → K=8 ratio is a
// parallel-speedup measurement; `serve` the live service mode's
// per-barrier snapshot publication and /metrics rendering; `all` every
// suite in one document.
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
// Usage:
//
//	viatorbench [-seed N] [-reps N] [-workers K] [-shards K] [-csv|-json] [-only E5,E11] [-ablations] [-stress] [-list]
//	viatorbench -scenario file.json | -scenario-dir dir [-seed N] [-reps N] [-workers K] [-shards K]
//	viatorbench -bench <kernel|routing|mobility|telemetry|principles|shard|serve|all>
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
	"runtime"
	"sort"
	"strings"
	"testing"

	"viator"
	"viator/internal/benchprobe"
	"viator/internal/serve"
)

// benchSelectors are the valid -bench suite names.
var benchSelectors = map[string]bool{
	"kernel": true, "routing": true, "mobility": true, "telemetry": true,
	"principles": true, "shard": true, "serve": true, "all": true,
}

// benchFlag is the -bench selector: a value flag that accepts only the
// suite names in benchSelectors.
type benchFlag struct{ suite string }

func (b *benchFlag) String() string { return b.suite }
func (b *benchFlag) Set(s string) error {
	if !benchSelectors[s] {
		return fmt.Errorf("valid suites: kernel, routing, mobility, telemetry, principles, shard, serve, all")
	}
	b.suite = s
	return nil
}

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
	var bench benchFlag
	fs.Var(&bench, "bench", "run a micro-benchmark suite (kernel|routing|mobility|telemetry|principles|shard|serve|all) and emit JSON (BENCH_<suite>.json)")
	telemetryOut := fs.String("telemetry", "", "export streaming telemetry for the selected telemetry-capable experiments as JSON-lines to this file (plus a Prometheus snapshot beside it)")
	scenarioFile := fs.String("scenario", "", "run one declarative scenario spec (JSON) and evaluate its assertions")
	scenarioDir := fs.String("scenario-dir", "", "run every *.json scenario spec in this directory as a suite")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		// A stray positional arg is almost always a typo'd -bench selector;
		// refuse instead of guessing.
		fmt.Fprintf(stderr, "viatorbench: unexpected argument %q (valid -bench suites: kernel, routing, mobility, telemetry, principles, shard, serve, all)\n", fs.Arg(0))
		return 2
	}
	viator.SetShardOverride(*shards)

	if bench.suite != "" {
		return runBenchSuite(bench.suite, *seed, *workers, stdout, stderr)
	}

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

// benchResult is one micro-benchmark's measurement in the emitted JSON.
type benchResult struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// record runs one benchmark body through testing.Benchmark (so iteration
// counts self-calibrate) and packages the measurement. ok is false when
// the body failed (b.Fatal yields a zero result).
func record(name string, fn func(b *testing.B)) (benchResult, bool) {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return benchResult{Name: name}, false
	}
	return benchResult{
		Name:        name,
		Ops:         r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}, true
}

// emitBench writes one benchmark-suite JSON document to stdout (CI
// redirects it into the matching BENCH_*.json artifact).
func emitBench(generatedBy string, seed uint64, results []benchResult, stdout, stderr io.Writer) int {
	doc := struct {
		GeneratedBy string        `json:"generated_by"`
		GoVersion   string        `json:"go_version"`
		MaxProcs    int           `json:"go_max_procs"`
		BaseSeed    uint64        `json:"base_seed"`
		Benchmarks  []benchResult `json:"benchmarks"`
	}{generatedBy, runtime.Version(), runtime.GOMAXPROCS(0), seed, results}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(stderr, "viatorbench: %v\n", err)
		return 1
	}
	return 0
}

// runBenchSuite dispatches one -bench selector: each suite's bodies are
// the exact ones `go test -bench` runs (internal/benchprobe), so CI's
// benchmark step and the BENCH_<suite>.json artifacts can never silently
// diverge; `all` concatenates every suite into one document.
func runBenchSuite(suite string, seed uint64, workers int, stdout, stderr io.Writer) int {
	var specs []benchSpec
	if suite == "kernel" || suite == "all" {
		specs = append(specs, benchKernel(seed, workers)...)
	}
	if suite == "routing" || suite == "all" {
		specs = append(specs, benchRoutingSuite(seed)...)
	}
	if suite == "mobility" || suite == "all" {
		specs = append(specs, benchMobilitySuite(seed)...)
	}
	if suite == "telemetry" || suite == "all" {
		specs = append(specs, benchTelemetry()...)
	}
	if suite == "principles" || suite == "all" {
		specs = append(specs, benchPrinciplesSuite(seed)...)
	}
	if suite == "shard" || suite == "all" {
		specs = append(specs, benchShardSuite(seed)...)
	}
	if suite == "serve" || suite == "all" {
		specs = append(specs, benchServeSuite()...)
	}
	var results []benchResult
	for _, s := range specs {
		r, ok := record(s.name, s.fn)
		if !ok {
			// b.Fatal inside the body: surface the failing benchmark
			// instead of emitting NaN JSON.
			fmt.Fprintf(stderr, "viatorbench: benchmark %s failed (see log above)\n", s.name)
			return 1
		}
		results = append(results, r)
	}
	return emitBench("viatorbench -bench "+suite, seed, results, stdout, stderr)
}

// benchSpec names one benchmark body inside a suite.
type benchSpec struct {
	name string
	fn   func(b *testing.B)
}

// benchKernel is the substrate suite (BENCH_kernel.json): the kernel
// schedule/fire path, the per-packet send path and a replicated E1 run.
func benchKernel(seed uint64, workers int) []benchSpec {
	return []benchSpec{
		{"kernel.schedule_fire", benchprobe.KernelScheduleFire},
		{"netsim.send_deliver", benchprobe.NetsimSendDeliver},
		{"e1.replicated_4x", func(b *testing.B) {
			benchprobe.Replicated(b, func() error {
				_, err := viator.RunReplicated([]string{"E1"}, 4, seed, workers)
				return err
			})
		}},
	}
}

// benchRoutingSuite is the routing control-plane suite
// (BENCH_routing.json): the gated no-op pulse, the sparse-traffic lazy
// adaptation cycle toward far and toward three-hop destinations, the
// eager parallel all-pairs rebuild and the warm-table next-hop lookup,
// all on an S1-sized radio mesh (1000 nodes, ~16k links, 2 overlays).
func benchRoutingSuite(seed uint64) []benchSpec {
	return []benchSpec{
		{"routing.pulse_steady", benchprobe.AdaptivePulseSteady(seed)},
		{"routing.pulse_lazy_sparse", benchprobe.AdaptivePulseLazySparse(seed)},
		{"routing.pulse_lazy_local", benchprobe.AdaptivePulseLazyLocal(seed)},
		{"routing.pulse_rebuild", benchprobe.AdaptivePulseRebuild(seed)},
		{"routing.next_hop", benchprobe.AdaptiveNextHop(seed)},
	}
}

// benchMobilitySuite is the physical-layer suite (BENCH_mobility.json):
// the brute-force O(n²) connectivity oracle, the spatial-hash grid
// refresh, the incremental diff refresh the simulation loop runs, the
// partition probe it runs after every refresh, and pure mobility
// stepping — all at S1 scale (1000 mobile ships, radius 75) — plus one
// full end-to-end S2 megalopolis run (10k ships).
func benchMobilitySuite(seed uint64) []benchSpec {
	return []benchSpec{
		{"mobility.connectivity_oracle", benchprobe.ConnectivityOracle(seed)},
		{"mobility.connectivity_grid", benchprobe.ConnectivityGrid(seed)},
		{"mobility.connectivity_incremental", benchprobe.ConnectivityIncremental(seed)},
		{"mobility.partition_probe", benchprobe.PartitionProbe(seed)},
		{"mobility.step", benchprobe.MobilityStep(seed)},
		{"s2.megalopolis_run", func(b *testing.B) {
			benchprobe.Replicated(b, func() error {
				_, err := viator.RunReplicated([]string{"S2"}, 1, seed, 1)
				return err
			})
		}},
	}
}

// benchTelemetry is the streaming-telemetry suite (BENCH_telemetry.json):
// the histogram observe/quantile/merge paths, one flight-recorder tick at
// stress-scenario width, and the per-delivery scorecard cost. The alloc
// columns are the point: zero on every hot path.
func benchTelemetry() []benchSpec {
	return []benchSpec{
		{"telemetry.hist_observe", benchprobe.HistObserve},
		{"telemetry.hist_quantile", benchprobe.HistQuantile},
		{"telemetry.hist_merge", benchprobe.HistMerge},
		{"telemetry.recorder_tick", benchprobe.RecorderTick},
		{"telemetry.scorecard_delivered", benchprobe.ScorecardDelivered},
	}
}

// benchPrinciplesSuite is the principle-engine suite
// (BENCH_principles.json): each engine's steady-state hot path at the
// S2 fleet size next to a body doing the pre-refactor per-op work, so
// the artifact carries the speedup evidence for the scale-discipline
// refactor.
func benchPrinciplesSuite(seed uint64) []benchSpec {
	return []benchSpec{
		{"principles.gossip_round", benchprobe.GossipRound(seed)},
		{"principles.gossip_round_describe", benchprobe.GossipRoundDescribe(seed)},
		{"principles.form_clusters_steady", benchprobe.FormClustersSteady(seed)},
		{"principles.form_clusters_rebuild", benchprobe.FormClustersRebuild(seed)},
		{"principles.form_clusters_scan", benchprobe.FormClustersScan(seed)},
		{"principles.observe_facts", benchprobe.ObserveFacts(seed)},
		{"principles.observe_facts_map", benchprobe.ObserveFactsMap(seed)},
		{"principles.emerge_frontier", benchprobe.EmergeFrontier(seed)},
		{"principles.emerge_scan", benchprobe.EmergeScan(seed)},
		{"principles.feedback_publish_key", benchprobe.FeedbackPublishKey},
		{"principles.feedback_publish_scan", benchprobe.FeedbackPublishScan},
		{"principles.metamorph_pulse", benchprobe.MetamorphPulse(seed)},
	}
}

// benchShardSuite is the space-partitioned executor suite
// (BENCH_shard.json): the ShardGroup substrate (windowed protocol at
// 1/2/4/8 kernels, raw mailbox cycle — 0 allocs/op steady state) and the
// end-to-end S3 smoke continent (10,000 ships in 8 districts) swept
// across 1/2/4/8 shard kernels. The model workload is the same size and
// shape at every K, so the s3_smoke_k1 → s3_smoke_k8 ns/op ratio is a
// parallel-speedup measurement bounded by the runner's core count.
func benchShardSuite(seed uint64) []benchSpec {
	specs := []benchSpec{
		{"shard.mailbox_cycle", benchprobe.ShardMailbox},
	}
	for _, k := range []int{1, 2, 4, 8} {
		specs = append(specs, benchSpec{fmt.Sprintf("shard.group_windowed_k%d", k),
			benchprobe.ShardGroupWindowed(k, 64)})
	}
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		specs = append(specs, benchSpec{fmt.Sprintf("shard.s3_smoke_k%d", k), func(b *testing.B) {
			prev := viator.ShardOverride()
			viator.SetShardOverride(k)
			defer viator.SetShardOverride(prev)
			benchprobe.ShardEndToEnd(b, func() error {
				if res := viator.ScenarioS3Smoke().Run(seed); !res.Pass() {
					return fmt.Errorf("S3S assertions failed at K=%d", k)
				}
				return nil
			})
		}})
	}
	return specs
}

// benchServeSuite is the live-service suite (BENCH_serve.json): the
// driver's per-barrier snapshot publication (status + Prometheus
// families + stream lines, rendered and broadcast at a paused barrier)
// and one run's share of a /metrics scrape. Bodies are shared with
// internal/serve's bench_test.go via serve.SnapshotBench and
// internal/benchprobe, so CI's benchmark step and this artifact measure
// the same loops.
func benchServeSuite() []benchSpec {
	return []benchSpec{
		{"serve.snapshot_publish", func(b *testing.B) {
			publish, err := serve.SnapshotBench()
			if err != nil {
				b.Fatal(err)
			}
			benchprobe.ServeSnapshot(b, publish)
		}},
		{"serve.metrics_render", benchprobe.MetricsRender},
	}
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
