// Command viatorperf is the repository's benchmark. Run from the root of
// the repository:
//
//	viatorperf [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-record file]
//	viatorperf compare A.jsonl B.jsonl
//	viatorperf digests > bench/testdata/digests.json
//
// Without -workload it runs every workload and prints a table; with one,
// it prints that workload's result object as its last line. Each workload
// runs in a child process of its own, capped at two threads, so its peak
// memory and runtime state are its own. -trace 1 reports the per-layer
// metrics instead of the end-to-end ones and writes spans.jsonl and
// cpu.pprof under -trace-dir. -record appends one JSON line per workload
// run; compare reads two such files and judges B against A with the
// bounds in BENCHMARK.json. bench/run.sh builds and runs it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"viator/bench/perf"
)

// threads caps each workload process (GOMAXPROCS): the two cores of the
// machine the bounds were measured on.
const threads = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:], stdout, stderr)
		case "digests":
			return digestsCmd(args[1:], stdout, stderr)
		case "child":
			return childCmd(args[1:], stdout, stderr)
		}
	}
	return benchCmd(args, stdout, stderr)
}

// runFlags are the flags a workload run takes, shared by the parent and
// the child it starts.
type runFlags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceDir string
}

func (f *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.workload, "workload", "", "workload to run (default: all)")
	fs.Uint64Var(&f.seed, "seed", perf.DigestBaseSeed, "base seed; operation i uses seed+i")
	fs.Float64Var(&f.seconds, "seconds", 15, "seconds each workload measures")
	fs.IntVar(&f.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&f.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where traced runs write spans and profiles")
}

func (f *runFlags) check() error {
	if f.trace != 0 && f.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", f.trace)
	}
	if f.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", f.seconds)
	}
	return nil
}

func benchCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viatorperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f runFlags
	f.register(fs)
	record := fs.String("record", "", "append one JSON record per workload run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := f.check(); err != nil {
		fmt.Fprintln(stderr, "viatorperf:", err)
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "viatorperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	workloads := perf.Workloads()
	if f.workload != "" {
		w, ok := perf.Lookup(f.workload)
		if !ok {
			fmt.Fprintf(stderr, "viatorperf: unknown workload %q; workloads: %s\n", f.workload, names(workloads))
			return 2
		}
		workloads = []*perf.Workload{w}
	}

	var results []*perf.Result
	for _, w := range workloads {
		out, res, err := spawn(w.Name, f, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "viatorperf: %s: %v\n", w.Name, err)
			return 1
		}
		if *record != "" {
			if err := appendRecord(*record, perf.Record{Workload: w.Name, Seed: f.seed, Trace: f.trace == 1, Result: res}); err != nil {
				fmt.Fprintln(stderr, "viatorperf:", err)
				return 1
			}
		}
		if len(workloads) == 1 {
			stdout.Write(out) // the child's output, result object last
			return 0
		}
		results = append(results, res)
	}
	defs := perf.EndToEnd
	if f.trace == 1 {
		defs = perf.PerLayer
	}
	printTable(stdout, workloads, results, defs)
	for _, r := range results {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

func names(ws []*perf.Workload) string {
	var s []string
	for _, w := range ws {
		s = append(s, w.Name)
	}
	return strings.Join(s, ", ")
}

// spawn runs one workload in a child process of this executable and
// returns its standard output and the result object on its last line.
// The child gets the run's seconds plus two minutes, then is killed.
func spawn(workload string, f runFlags, stderr io.Writer) ([]byte, *perf.Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	limit := time.Duration(f.seconds*float64(time.Second)) + 2*time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "child",
		"-workload", workload,
		"-seed", strconv.FormatUint(f.seed, 10),
		"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(f.trace),
		"-trace-dir", filepath.Join(f.traceDir, fmt.Sprintf("%s-seed%d", workload, f.seed)))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(threads))
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, nil, fmt.Errorf("killed after %v", limit)
		}
		return nil, nil, err
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var res perf.Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("child printed no result: %w", err)
	}
	return out.Bytes(), &res, nil
}

func appendRecord(path string, r perf.Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(append(line, '\n')); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// printTable prints every workload's metrics, one row per metric.
func printTable(w io.Writer, ws []*perf.Workload, rs []*perf.Result, defs []perf.MetricDef) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit")
	for i, r := range rs {
		fmt.Fprintf(tw, "%s\tcorrect\t%t\t\n", ws[i].Name, r.Correct)
		fmt.Fprintf(tw, "%s\tfailed/attempted\t%d/%d\tops\n", ws[i].Name, r.Failed, r.Attempted)
		for _, d := range defs {
			m := r.Metrics[d.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", ws[i].Name, d.Name, m.Value, m.Unit)
		}
	}
	tw.Flush()
}

// childCmd runs one workload in this process and prints its result object
// as the last line of standard output.
func childCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viatorperf child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f runFlags
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := f.check(); err != nil {
		fmt.Fprintln(stderr, "viatorperf:", err)
		return 2
	}
	w, ok := perf.Lookup(f.workload)
	if !ok {
		fmt.Fprintf(stderr, "viatorperf: unknown workload %q\n", f.workload)
		return 2
	}
	digests, err := perf.StoredDigests()
	if err != nil {
		fmt.Fprintln(stderr, "viatorperf:", err)
		return 1
	}
	opts := perf.Options{Seed: f.seed, Seconds: f.seconds, Trace: f.trace == 1, Digests: digests, Log: stderr}
	if opts.Trace {
		opts.TraceDir = f.traceDir
	}
	res, err := perf.Run(w, opts)
	if err != nil {
		fmt.Fprintf(stderr, "viatorperf: %s: %v\n", w.Name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "viatorperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viatorperf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: viatorperf compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	spec, err := perf.LoadBenchSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "viatorperf:", err)
		return 2
	}
	var sides [2][]perf.Record
	for i := range sides {
		if sides[i], err = perf.ReadRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(stderr, "viatorperf:", err)
			return 2
		}
	}
	cs := perf.Compare(spec, sides[0], sides[1])
	if len(cs) == 0 {
		fmt.Fprintln(stderr, "viatorperf: no workload has untraced runs on both sides")
		return 2
	}
	if err := perf.WriteComparisons(stdout, cs); err != nil {
		return 1
	}
	for _, c := range cs {
		if c.Verdict == perf.Worse {
			return 1
		}
	}
	return 0
}

func digestsCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viatorperf digests", flag.ContinueOnError)
	fs.SetOutput(stderr)
	goldens := fs.String("goldens", filepath.Join("testdata", "scenario"), "directory of the S1/S2 golden tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := perf.GenerateDigests(*goldens, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "viatorperf:", err)
		return 1
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "viatorperf:", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", out); err != nil {
		return 1
	}
	return 0
}
