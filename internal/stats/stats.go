// Package stats provides the exact measurement substrate used by every
// Viator experiment: streaming counters and summaries, histograms, time
// series and plain-text table rendering for the benchmark harness output.
//
// Counter is integer-keyed: a name is resolved once to a Key, and Add
// turns per-packet accounting into a bare slice increment — what the
// packet substrate does on its hot path. Get reads a tally back by name.
//
// Summary retains every observation, which is what makes its percentiles
// exact — the property the paper tables depend on — at O(n) memory. For
// unbounded streams (stress scenarios, per-flow latency at scale) the
// sibling package telemetry provides Hist: fixed memory, allocation-free
// observes, exact merges, and quantiles with bounded (≤ 1%) relative
// error. Pick Summary where a table cell must be an exact order
// statistic; pick telemetry.Hist where the stream must never grow state.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of float64 observations and answers the
// usual moment and order-statistic questions. Observations are retained so
// exact percentiles are available; use Counter for unbounded streams.
type Summary struct {
	vals   []float64
	sum    float64
	sumSq  float64
	min    float64
	max    float64
	sorted bool
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one observation. NaN is ignored: a single NaN would poison
// the running sum and make the sort order (and so every percentile)
// unspecified, which no caller ever wants from a latency stream.
func (s *Summary) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.vals = append(s.vals, v)
	s.sum += v
	s.sumSq += v * v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.sorted = false
}

// N returns the number of observations.
func (s *Summary) N() int { return len(s.vals) }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Var returns the population variance.
func (s *Summary) Var() float64 {
	n := float64(len(s.vals))
	if n == 0 {
		return 0
	}
	m := s.sum / n
	v := s.sumSq/n - m*m
	if v < 0 { // floating point guard
		return 0
	}
	return v
}

// SampleVar returns the unbiased (n-1 denominator) sample variance, the
// estimator replicated experiments need; 0 for fewer than two observations.
func (s *Summary) SampleVar() float64 {
	n := float64(len(s.vals))
	if n < 2 {
		return 0
	}
	m := s.sum / n
	v := (s.sumSq - n*m*m) / (n - 1)
	if v < 0 { // floating point guard
		return 0
	}
	return v
}

// SampleStddev returns the unbiased sample standard deviation.
func (s *Summary) SampleStddev() float64 { return math.Sqrt(s.SampleVar()) }

// Stderr returns the standard error of the mean (sample stddev / sqrt n),
// or 0 for fewer than two observations.
func (s *Summary) Stderr() float64 {
	if len(s.vals) < 2 {
		return 0
	}
	return s.SampleStddev() / math.Sqrt(float64(len(s.vals)))
}

// tQuantile95 holds the two-sided 95% Student-t quantiles for 1..30
// degrees of freedom; beyond 30 the normal quantile 1.96 is close enough.
var tQuantile95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// (Student-t for small samples), so [Mean-CI95, Mean+CI95] covers the true
// mean with 95% confidence under the usual normality assumption. Returns 0
// for fewer than two observations.
func (s *Summary) CI95() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.96
	if df <= len(tQuantile95) {
		t = tQuantile95[df-1]
	}
	return t * s.Stderr()
}

// Min returns the smallest observation, or +Inf when empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or -Inf when empty.
func (s *Summary) Max() float64 { return s.max }

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation between the bracketing order statistics. Edge cases are
// pinned by tests: an empty summary returns 0, a single observation is
// every percentile, p <= 0 and p >= 100 return the exact Min and Max,
// and a NaN p returns NaN instead of an arbitrary element.
func (s *Summary) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median is Percentile(50).
func (s *Summary) Median() float64 { return s.Percentile(50) }

// String renders a one-line digest.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g min=%.4g max=%.4g",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Min(), s.Max())
}

// Counter is a cheap monotonically adjustable tally keyed by name, used
// for event accounting across a simulation. A name is resolved to a Key
// once and bumped through Add, which costs one bounds-checked slice
// increment instead of a map lookup per event.
type Counter struct {
	idx  map[string]Key
	vals []float64
}

// Key is a stable integer handle to one named counter, resolved once via
// Counter.Key and then usable with Add on the per-event path.
type Key int

// NewCounter returns an empty counter set.
func NewCounter() *Counter {
	return &Counter{idx: make(map[string]Key)}
}

// Key resolves name to its integer handle, registering the counter at zero
// on first use.
func (c *Counter) Key(name string) Key {
	if k, ok := c.idx[name]; ok {
		return k
	}
	k := Key(len(c.vals))
	c.idx[name] = k
	c.vals = append(c.vals, 0)
	return k
}

// Add adds delta to the counter behind k — the allocation-free, map-free
// fast path for per-packet accounting.
//
//viator:noalloc
func (c *Counter) Add(k Key, delta float64) { c.vals[k] += delta }

// Get returns the value of the named counter (0 if never incremented).
func (c *Counter) Get(name string) float64 {
	if k, ok := c.idx[name]; ok {
		return c.vals[k]
	}
	return 0
}

// Histogram buckets observations into fixed-width bins over [lo,hi); values
// outside the range land in the under/overflow bins.
type Histogram struct {
	lo, hi float64
	width  float64
	bins   []uint64
	under  uint64
	over   uint64
	total  uint64
	sum    float64
}

// NewHistogram creates a histogram with n bins spanning [lo,hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{lo: lo, hi: hi, width: (hi - lo) / float64(n), bins: make([]uint64, n)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	h.total++
	h.sum += v
	switch {
	case v < h.lo:
		h.under++
	case v >= h.hi:
		h.over++
	default:
		i := int((v - h.lo) / h.width)
		if i >= len(h.bins) { // right-edge float slack
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// Count returns total observations including under/overflow.
func (h *Histogram) Count() uint64 { return h.total }

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) uint64 { return h.bins[i] }

// Mean returns the mean of all added values (exact, not bin-centered).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Mode returns the midpoint of the fullest in-range bin.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.bins {
		if c > h.bins[best] {
			best = i
		}
	}
	return h.lo + (float64(best)+0.5)*h.width
}

// Sparkline renders the histogram as a compact unicode bar string, handy
// for harness output that mirrors a paper figure's distribution shape.
func (h *Histogram) Sparkline() string {
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var max uint64
	for _, c := range h.bins {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return ""
	}
	out := make([]rune, len(h.bins))
	for i, c := range h.bins {
		g := int(float64(c) / float64(max) * float64(len(glyphs)-1))
		out[i] = glyphs[g]
	}
	return string(out)
}

// Series is an append-only (time, value) sequence for tracking a metric's
// trajectory over simulation time — the raw material of every "figure".
type Series struct {
	T []float64
	V []float64
}

// Append records a point. Times must be non-decreasing.
func (s *Series) Append(t, v float64) {
	if n := len(s.T); n > 0 && t < s.T[n-1] {
		panic("stats: series time went backwards")
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

// Last returns the final value, or 0 when empty.
func (s *Series) Last() float64 {
	if len(s.V) == 0 {
		return 0
	}
	return s.V[len(s.V)-1]
}

// At returns the value in effect at time t (step interpolation, i.e. the
// last point with T <= t); 0 before the first point.
func (s *Series) At(t float64) float64 {
	i := sort.SearchFloat64s(s.T, t)
	if i < len(s.T) && s.T[i] == t {
		return s.V[i]
	}
	if i == 0 {
		return 0
	}
	return s.V[i-1]
}

// Mean returns the unweighted mean of the values.
func (s *Series) Mean() float64 {
	if len(s.V) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.V {
		sum += v
	}
	return sum / float64(len(s.V))
}

// EWMA is an exponentially weighted moving average, the smoothing element
// used by feedback controllers.
type EWMA struct {
	Alpha float64
	val   float64
	init  bool
}

// Update folds in a new observation and returns the new average.
func (e *EWMA) Update(v float64) float64 {
	if !e.init {
		e.val = v
		e.init = true
		return v
	}
	e.val = e.Alpha*v + (1-e.Alpha)*e.val
	return e.val
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.val }

// Entropy returns the Shannon entropy (bits) of a discrete distribution
// given as non-negative counts. Used to quantify role differentiation in a
// Wandering Network (Figure 1's "different shapes of the nodes").
func Entropy(counts []int) float64 {
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / total
		h -= p * math.Log2(p)
	}
	return h
}
