package perf

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := Percentile([]float64{5, 1, 4, 2, 3}, 0.95); got != 5 {
		t.Errorf("p95 = %v, want 5", got)
	}
	if got := Percentile([]float64{5, 1, 4, 2, 3}, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
}

func records(workload string, metric string, failed int, vs ...float64) []Record {
	var out []Record
	for _, v := range vs {
		out = append(out, Record{Workload: workload, Result: &Result{
			Correct: failed == 0, Attempted: 1, Failed: failed,
			Metrics: map[string]Metric{metric: {Value: v, Unit: "s"}},
		}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	spec := &BenchSpec{EndToEnd: []MetricSpec{{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.05}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	parent := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name    string
		a, b    []Record
		want    string
		wantErr string // verdict on the failed-count row
	}{
		{"same", records("w", "run_s", 0, parent...), records("w", "run_s", 0, parent...), Within, Within},
		{"slower", records("w", "run_s", 0, parent...), records("w", "run_s", 0, scaled(1.10)...), Worse, Within},
		{"slightly slower", records("w", "run_s", 0, parent...), records("w", "run_s", 0, scaled(1.03)...), Within, Within},
		{"faster", records("w", "run_s", 0, parent...), records("w", "run_s", 0, scaled(0.90)...), Better, Within},
		{"noisy parent", records("w", "run_s", 0, 1, 2, 1, 2, 1, 2), records("w", "run_s", 0, 1, 2, 1, 2, 1, 2), Unresolved, Within},
		{"noisy but all faster", records("w", "run_s", 0, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2), records("w", "run_s", 0, 0.2, 0.3, 0.2, 0.3, 0.2, 0.3, 0.2, 0.3, 0.2, 0.3), Better, Within},
		{"too few pairs to claim", records("w", "run_s", 0, parent[:5]...), records("w", "run_s", 0, scaled(0.90)[:5]...), Within, Within},
		{"new failure", records("w", "run_s", 0, parent...), records("w", "run_s", 1, parent...), Within, Worse},
	} {
		cs := Compare(spec, c.a, c.b)
		if len(cs) != 2 {
			t.Fatalf("%s: %d comparisons, want 2", c.name, len(cs))
		}
		if cs[0].Verdict != c.want || cs[1].Verdict != c.wantErr {
			t.Errorf("%s: verdicts %q, %q; want %q, %q", c.name, cs[0].Verdict, cs[1].Verdict, c.want, c.wantErr)
		}
	}

	higher := &BenchSpec{Workloads: spec.Workloads,
		EndToEnd: []MetricSpec{{Name: "run_s", Unit: "1/s", Better: "higher", Bound: 0.05}}}
	if cs := Compare(higher, records("w", "run_s", 0, parent...), records("w", "run_s", 0, scaled(0.9)...)); cs[0].Verdict != Worse {
		t.Errorf("higher-is-better drop: verdict %q, want %q", cs[0].Verdict, Worse)
	}
}
