package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.sum != 15 || s.Mean() != 3 {
		t.Fatalf("n=%d sum=%v mean=%v", s.N(), s.sum, s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
	if s.Percentile(50) != 3 {
		t.Fatalf("median=%v", s.Percentile(50))
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary()
	if s.Mean() != 0 || s.SampleVar() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty summary should return zeros")
	}
}

func TestSummaryPercentileBounds(t *testing.T) {
	s := NewSummary()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 100 {
		t.Fatalf("p0=%v p100=%v", s.Percentile(0), s.Percentile(100))
	}
	p95 := s.Percentile(95)
	if p95 < 94 || p95 > 97 {
		t.Fatalf("p95=%v", p95)
	}
}

func TestSummaryPercentileMonotone(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		s := NewSummary()
		x := uint64(seed)
		for i := 0; i < 30; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			s.Add(float64(x % 1000))
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryAddAfterPercentile(t *testing.T) {
	s := NewSummary()
	s.Add(5)
	s.Add(1)
	_ = s.Percentile(50)
	s.Add(9)
	if s.Max() != 9 || s.Percentile(100) != 9 {
		t.Fatal("summary stale after post-sort Add")
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	if e.Update(10) != 10 {
		t.Fatal("first update should seed")
	}
	if v := e.Update(20); v != 15 {
		t.Fatalf("ewma=%v", v)
	}
	if e.Value() != 15 {
		t.Fatalf("value=%v", e.Value())
	}
}

func TestEntropy(t *testing.T) {
	if Entropy([]int{10, 0, 0}) != 0 {
		t.Fatal("degenerate distribution should have zero entropy")
	}
	if h := Entropy([]int{5, 5}); math.Abs(h-1) > 1e-12 {
		t.Fatalf("uniform 2-way entropy = %v", h)
	}
	if h := Entropy([]int{1, 1, 1, 1}); math.Abs(h-2) > 1e-12 {
		t.Fatalf("uniform 4-way entropy = %v", h)
	}
	if Entropy(nil) != 0 {
		t.Fatal("empty entropy")
	}
}

func TestEntropyMaxAtUniform(t *testing.T) {
	if err := quick.Check(func(a, b uint8) bool {
		x, y := int(a)+1, int(b)+1
		return Entropy([]int{x, y}) <= 1.0+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 200)
	out := tb.String()
	if !strings.Contains(out, "T1") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 || tb.Cell(0, 0) != "alpha" {
		t.Fatalf("cell access broken")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`x,"y`, 2)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,""y"`) {
		t.Fatalf("csv escaping: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("csv header: %q", csv)
	}
}

func TestSampleVarAndCI95(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	// Known dataset: population var 4, sample var 32/7.
	if got := s.SampleVar(); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("SampleVar = %v, want %v", got, 32.0/7)
	}
	wantSE := math.Sqrt(32.0/7) / math.Sqrt(8)
	if got := s.Stderr(); math.Abs(got-wantSE) > 1e-12 {
		t.Fatalf("Stderr = %v, want %v", got, wantSE)
	}
	// df=7 → t=2.365.
	if got := s.CI95(); math.Abs(got-2.365*wantSE) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", got, 2.365*wantSE)
	}
}

func TestCI95SmallSamples(t *testing.T) {
	s := NewSummary()
	if s.CI95() != 0 || s.Stderr() != 0 || s.SampleVar() != 0 {
		t.Fatal("empty summary must have zero spread")
	}
	s.Add(5)
	if s.CI95() != 0 {
		t.Fatalf("n=1 CI95 = %v, want 0", s.CI95())
	}
	s.Add(5)
	if s.CI95() != 0 {
		t.Fatalf("constant observations CI95 = %v, want 0", s.CI95())
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	// Same spread, more observations → tighter interval.
	small, large := NewSummary(), NewSummary()
	for i := 0; i < 4; i++ {
		small.Add(float64(i % 2))
	}
	for i := 0; i < 64; i++ {
		large.Add(float64(i % 2))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: n=4 %v vs n=64 %v", small.CI95(), large.CI95())
	}
}

func TestTableHeadersAccessors(t *testing.T) {
	tb := NewTable("x", "a", "b")
	if tb.NumCols() != 2 {
		t.Fatalf("NumCols = %d", tb.NumCols())
	}
	h := tb.Headers()
	h[0] = "mutated"
	if tb.Headers()[0] != "a" {
		t.Fatal("Headers leaked internal state")
	}
}

func TestTableAlignsMultibyteCells(t *testing.T) {
	tb := NewTable("", "v", "w")
	tb.AddRow("1 ±0.5", "x")
	tb.AddRow("10 ±2.25", "y")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	// The second column must start at the same rune offset on every line.
	col := strings.Index(lines[len(lines)-1], "y")
	want := len([]rune(lines[len(lines)-1][:col]))
	for _, ln := range lines[1:] {
		runes := []rune(ln)
		if len(runes) <= want {
			t.Fatalf("short line %q", ln)
		}
	}
	if x := []rune(lines[len(lines)-2]); string(x[want]) != "x" {
		t.Fatalf("column misaligned: %q", lines)
	}
}

// --- Percentile edge-case hardening (previously untested behavior) ---

func TestPercentileEmptySummary(t *testing.T) {
	s := NewSummary()
	for _, p := range []float64{0, 50, 100} {
		if got := s.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
}

func TestPercentileSingleObservation(t *testing.T) {
	s := NewSummary()
	s.Add(7.5)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := s.Percentile(p); got != 7.5 {
			t.Fatalf("single-obs Percentile(%v) = %v, want 7.5", p, got)
		}
	}
}

func TestPercentileExtremesAreExactMinMax(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		s.Add(v)
	}
	for _, p := range []float64{0, -5, math.Inf(-1)} {
		if got := s.Percentile(p); got != 1 {
			t.Fatalf("Percentile(%v) = %v, want exact min 1", p, got)
		}
	}
	for _, p := range []float64{100, 250, math.Inf(1)} {
		if got := s.Percentile(p); got != 9 {
			t.Fatalf("Percentile(%v) = %v, want exact max 9", p, got)
		}
	}
}

func TestPercentileNaNGuards(t *testing.T) {
	s := NewSummary()
	s.Add(1)
	s.Add(2)
	if got := s.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Percentile(NaN) = %v, want NaN", got)
	}
	// NaN observations are ignored: they would poison the sum and make
	// the sort order unspecified.
	s.Add(math.NaN())
	if s.N() != 2 {
		t.Fatalf("N after Add(NaN) = %d, want 2", s.N())
	}
	if math.IsNaN(s.sum) || math.IsNaN(s.Mean()) {
		t.Fatalf("NaN leaked into sum/mean: %v/%v", s.sum, s.Mean())
	}
	if got := s.Percentile(50); got != 1.5 {
		t.Fatalf("median after Add(NaN) = %v, want 1.5", got)
	}
}
