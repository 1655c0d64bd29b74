package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Record is one benchmark run as `viatorperf -record` appends it.
type Record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *Result `json:"result"`
}

// MetricSpec is one metric entry of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// BenchSpec is the part of BENCHMARK.json the benchmark reads.
type BenchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// LoadBenchSpec reads BENCHMARK.json.
func LoadBenchSpec(path string) (*BenchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s BenchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// ReadRecords reads a record file.
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s:%d: record without a result", path, n)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of a comparison.
const (
	Better     = "better"
	Worse      = "worse"
	Within     = "within bound"
	Unresolved = "unresolved"
)

// Summary is one side's runs of one metric.
type Summary struct {
	N              int
	Median, Q1, Q3 float64
}

func summarize(xs []float64) Summary {
	q1, q3 := Quartiles(xs)
	return Summary{N: len(xs), Median: Median(xs), Q1: q1, Q3: q3}
}

// Comparison is the verdict on one (workload, metric) pair.
type Comparison struct {
	Workload, Metric, Unit string
	A, B                   Summary
	// Wins counts pairs (the i-th run of each side) where B is better.
	Wins, Pairs int
	Bound       float64
	Verdict     string
}

// minPairs is the fewest pairs a "better" verdict rests on.
const minPairs = 10

// Compare judges runs b (the change) against runs a (the parent) for every
// end-to-end metric of spec on every workload both sides ran untraced,
// plus the failed-operation count, which may not rise at all.
//
//   - worse: B's median is worse than A's by more than the bound;
//   - unresolved: A's own spread (IQR/median) is wider than the bound,
//     unless every B run beats every A run;
//   - better: over at least minPairs pairs, B wins at least 9 in 10 and
//     the medians differ by more than A's IQR;
//   - within bound otherwise.
func Compare(spec *BenchSpec, a, b []Record) []Comparison {
	var out []Comparison
	for _, w := range spec.Workloads {
		ra, rb := untraced(a, w.Name), untraced(b, w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			out = append(out, compareMetric(w.Name, m, values(ra, m.Name), values(rb, m.Name)))
		}
		fa, fb := 0, 0
		for _, r := range ra {
			fa += r.Result.Failed
		}
		for _, r := range rb {
			fb += r.Result.Failed
		}
		c := Comparison{Workload: w.Name, Metric: "failed", Unit: "count",
			A: Summary{N: len(ra), Median: float64(fa)}, B: Summary{N: len(rb), Median: float64(fb)},
			Verdict: Within}
		if fb > fa {
			c.Verdict = Worse
		}
		out = append(out, c)
	}
	return out
}

func untraced(rs []Record, workload string) []Record {
	var out []Record
	for _, r := range rs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []Record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareMetric(workload string, m MetricSpec, a, b []float64) Comparison {
	c := Comparison{Workload: workload, Metric: m.Name, Unit: m.Unit, A: summarize(a), B: summarize(b), Bound: m.Bound}
	// sign turns "B worse than A" into a positive difference.
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	c.Pairs = min(len(a), len(b))
	for i := 0; i < c.Pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			c.Wins++
		}
	}
	if c.A.Median == 0 || len(a) == 0 || len(b) == 0 {
		c.Verdict = Unresolved
		return c
	}
	worseBy := sign * (c.B.Median - c.A.Median) / math.Abs(c.A.Median)
	spread := (c.A.Q3 - c.A.Q1) / math.Abs(c.A.Median)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > m.Bound && !allBetter:
		c.Verdict = Unresolved
	case worseBy > m.Bound:
		c.Verdict = Worse
	case c.Pairs >= minPairs && 10*c.Wins >= 9*c.Pairs && -sign*(c.B.Median-c.A.Median) > c.A.Q3-c.A.Q1:
		c.Verdict = Better
	default:
		c.Verdict = Within
	}
	return c
}

// WriteComparisons prints one row per comparison.
func WriteComparisons(w io.Writer, cs []Comparison) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tB wins\tbound\tverdict")
	for _, c := range cs {
		change := "-"
		if c.A.Median != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(c.B.Median-c.A.Median)/math.Abs(c.A.Median))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%d/%d\t%.0f%%\t%s\n",
			c.Workload, c.Metric, c.Unit, c.A.Median, c.A.Q1, c.A.Q3, c.B.Median, c.B.Q1, c.B.Q3,
			change, c.Wins, c.Pairs, 100*c.Bound, c.Verdict)
	}
	return tw.Flush()
}
