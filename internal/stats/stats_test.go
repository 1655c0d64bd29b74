package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"viator/internal/allocpin"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.Sum() != 15 || s.Mean() != 3 {
		t.Fatalf("n=%d sum=%v mean=%v", s.N(), s.Sum(), s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
	if s.Median() != 3 {
		t.Fatalf("median=%v", s.Median())
	}
	if math.Abs(s.Var()-2) > 1e-12 {
		t.Fatalf("var=%v", s.Var())
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary()
	if s.Mean() != 0 || s.Var() != 0 || s.Percentile(50) != 0 {
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
	_ = s.Median()
	s.Add(9)
	if s.Max() != 9 || s.Percentile(100) != 9 {
		t.Fatal("summary stale after post-sort Add")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	a, b := c.Key("a"), c.Key("b")
	if a == b {
		t.Fatal("distinct names share a key")
	}
	c.Add(a, 1)
	c.Add(b, 2)
	c.Add(a, 3)
	if c.Get("a") != 4 || c.Get("b") != 2 || c.Get("zzz") != 0 {
		t.Fatalf("a=%v b=%v", c.Get("a"), c.Get("b"))
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(11)
	if h.Count() != 12 {
		t.Fatalf("count=%d", h.Count())
	}
	for i := 0; i < 10; i++ {
		if h.Bin(i) != 1 {
			t.Fatalf("bin %d = %d", i, h.Bin(i))
		}
	}
	if h.under != 1 || h.over != 1 {
		t.Fatalf("under=%d over=%d", h.under, h.over)
	}
}

func TestHistogramRightEdge(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	h.Add(0.9999999999999999) // rounds to bin index 3 without the guard
	if h.over != 0 && h.Bin(2) == 0 {
		t.Fatal("right-edge value lost")
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 5; i++ {
		h.Add(7.3)
	}
	h.Add(1.1)
	if m := h.Mode(); m != 7.5 {
		t.Fatalf("mode=%v", m)
	}
}

func TestHistogramSparkline(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.5)
	s := h.Sparkline()
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline %q", s)
	}
	if NewHistogram(0, 1, 3).Sparkline() != "" {
		t.Fatal("empty histogram sparkline should be empty")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(0, 10)
	s.Append(5, 20)
	s.Append(10, 30)
	if s.Len() != 3 || s.Last() != 30 {
		t.Fatalf("len=%d last=%v", s.Len(), s.Last())
	}
	if s.At(-1) != 0 || s.At(0) != 10 || s.At(7) != 20 || s.At(10) != 30 || s.At(99) != 30 {
		t.Fatalf("step lookup wrong: %v %v %v", s.At(0), s.At(7), s.At(99))
	}
	if s.Mean() != 20 {
		t.Fatalf("mean=%v", s.Mean())
	}
}

func TestSeriesBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var s Series
	s.Append(5, 1)
	s.Append(4, 2)
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

func TestCounterFastPath(t *testing.T) {
	c := NewCounter()
	k := c.Key("pkts")
	if c.Key("pkts") != k {
		t.Fatal("Key not stable across calls")
	}
	c.Add(k, 2)
	c.Add(k, 3)
	if c.Get("pkts") != 5 {
		t.Fatalf("Get = %v after Add, want 5", c.Get("pkts"))
	}
	// Registration alone makes the name readable at zero.
	c.Key("reserved")
	if c.Get("reserved") != 0 {
		t.Fatalf("registered counter not zero: %v", c.Get("reserved"))
	}
}

func TestCounterAddAllocFree(t *testing.T) {
	c := NewCounter()
	k := c.Key("hot")
	allocpin.Zero(t, 1000, func() { c.Add(k, 1) }, "(*Counter).Add")
}

// --- Percentile edge-case hardening (previously untested behavior) ---

func TestPercentileEmptySummary(t *testing.T) {
	s := NewSummary()
	for _, p := range []float64{0, 50, 100} {
		if got := s.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	if s.Median() != 0 {
		t.Fatalf("empty Median = %v", s.Median())
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
	if math.IsNaN(s.Sum()) || math.IsNaN(s.Mean()) {
		t.Fatalf("NaN leaked into sum/mean: %v/%v", s.Sum(), s.Mean())
	}
	if got := s.Percentile(50); got != 1.5 {
		t.Fatalf("median after Add(NaN) = %v, want 1.5", got)
	}
}
