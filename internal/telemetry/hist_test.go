package telemetry

import (
	"math"
	"sort"
	"testing"
	"viator/internal/allocpin"

	"viator/internal/sim"
	"viator/internal/stats"
)

func TestHistEmpty(t *testing.T) {
	h := NewHist()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("empty hist: count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty quantile = %v, want 0", h.Quantile(0.5))
	}
	if !math.IsInf(h.Min(), 1) || !math.IsInf(h.Max(), -1) {
		t.Fatalf("empty min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistSingleObservation(t *testing.T) {
	h := NewHist()
	h.Observe(0.125)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0.125 {
			t.Fatalf("Quantile(%v) = %v, want exactly 0.125 (clamped to min/max)", q, got)
		}
	}
	if h.Count() != 1 || h.Sum() != 0.125 || h.Mean() != 0.125 {
		t.Fatalf("count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
}

func TestHistExactTails(t *testing.T) {
	h := NewHist()
	for _, v := range []float64{0.003, 0.001, 0.9, 0.02} {
		h.Observe(v)
	}
	if h.Quantile(0) != 0.001 || h.Quantile(1) != 0.9 {
		t.Fatalf("tails = %v/%v, want exact 0.001/0.9", h.Quantile(0), h.Quantile(1))
	}
	if h.Min() != 0.001 || h.Max() != 0.9 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistZeroAndBadValues(t *testing.T) {
	h := NewHist()
	h.Observe(0)
	h.Observe(0)
	h.Observe(1.0)
	h.Observe(math.NaN())
	h.Observe(-1)
	h.Observe(math.Inf(1))
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3 (NaN, negative and Inf dropped)", h.Count())
	}
	if h.dropped != 3 {
		t.Fatalf("dropped = %d, want 3", h.dropped)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("median of {0,0,1} = %v, want 0", got)
	}
	if h.Min() != 0 || h.Max() != 1 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if math.IsNaN(h.Sum()) {
		t.Fatal("NaN leaked into sum")
	}
	if !math.IsNaN(h.Quantile(math.NaN())) {
		t.Fatal("Quantile(NaN) should be NaN")
	}
}

func TestHistOutOfRangeClamps(t *testing.T) {
	h := NewHist()
	tiny, huge := 1e-12, 1e12 // outside [2^-30, 2^31)
	h.Observe(tiny)
	h.Observe(huge)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	// Tails stay exact even though the buckets clamped.
	if h.Quantile(0) != tiny || h.Quantile(1) != huge {
		t.Fatalf("tails = %v/%v", h.Quantile(0), h.Quantile(1))
	}
}

// TestHistBucketGeometry pins the error-bound machinery itself: every
// bucket's bounds contain the values that index into it, and the relative
// width is 1/histSub.
func TestHistBucketGeometry(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 20000; trial++ {
		// In-range values spread over many octaves (out-of-range clamping
		// is covered by TestHistOutOfRangeClamps).
		v := math.Ldexp(1+rng.Float64(), histMinExp+rng.Intn(histOctaves-1))
		i := bucketIndex(v)
		lo, w := bucketBounds(i)
		if v < lo || v >= lo+w {
			t.Fatalf("value %v indexed to bucket %d [%v,%v)", v, i, lo, lo+w)
		}
		if rel := w / lo; rel > 1.0/float64(histSub)*1.0001 {
			t.Fatalf("bucket %d relative width %v exceeds 1/%d", i, rel, histSub)
		}
	}
}

// TestHistQuantileErrorBound is the quantile accuracy property test
// against the exact stats.Summary oracle: across several distributions,
// every queried quantile must be within 1% relative error of the exact
// nearest-rank order statistic, and close to the Summary's interpolated
// percentile as well.
func TestHistQuantileErrorBound(t *testing.T) {
	const n = 20000
	dists := map[string]func(r *sim.RNG) float64{
		"uniform":     func(r *sim.RNG) float64 { return 0.001 + r.Float64() },
		"exponential": func(r *sim.RNG) float64 { return r.Exp(0.05) },
		"lognormal": func(r *sim.RNG) float64 {
			// Box-Muller: exp of a normal draw with mean -3 and stddev 1.5.
			u1 := r.Float64()
			for u1 == 0 {
				u1 = r.Float64()
			}
			return math.Exp(-3 + 1.5*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*r.Float64()))
		},
	}
	for name, draw := range dists {
		rng := sim.NewRNG(42)
		h := NewHist()
		s := stats.NewSummary()
		vals := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			v := draw(rng)
			h.Observe(v)
			s.Add(v)
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
			est := h.Quantile(q)
			// The estimate must bracket within the true order statistics
			// around the rank, up to the bucket error bound.
			rank := q * float64(n-1)
			lo, hi := vals[int(math.Floor(rank))], vals[int(math.Ceil(rank))]
			if est < lo*(1-0.01) || est > hi*(1+0.01) {
				t.Errorf("%s q=%v: est %v outside [%v,%v]±1%%", name, q, est, lo, hi)
			}
			// And against the Summary's interpolated percentile — the exact
			// oracle the paper tables use and the definition Quantile mirrors.
			oracle := s.Percentile(q * 100)
			if rel := math.Abs(est-oracle) / oracle; rel > 0.01 {
				t.Errorf("%s q=%v: est %v vs Summary oracle %v (rel err %.4f > 1%%)", name, q, est, oracle, rel)
			}
		}
	}
}

// TestHistMergeEqualsUnionStream: merging per-shard histograms must give
// exactly the histogram of the concatenated stream (integer state).
func TestHistMergeEqualsUnionStream(t *testing.T) {
	rng := sim.NewRNG(3)
	union := NewHist()
	shards := make([]*Hist, 4)
	for i := range shards {
		shards[i] = NewHist()
	}
	for i := 0; i < 50000; i++ {
		v := rng.Exp(0.02)
		union.Observe(v)
		shards[i%len(shards)].Observe(v)
	}
	merged := NewHist()
	for _, sh := range shards {
		merged.Merge(sh)
	}
	if merged.Count() != union.Count() || merged.Min() != union.Min() || merged.Max() != union.Max() {
		t.Fatalf("merged count/min/max %d/%v/%v vs union %d/%v/%v",
			merged.Count(), merged.Min(), merged.Max(), union.Count(), union.Min(), union.Max())
	}
	for i := 0; i < histBuckets; i++ {
		if merged.counts[i] != union.counts[i] {
			t.Fatalf("bucket %d: merged %d, union %d", i, merged.counts[i], union.counts[i])
		}
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		if merged.Quantile(q) != union.Quantile(q) {
			t.Fatalf("q=%v: merged %v, union %v", q, merged.Quantile(q), union.Quantile(q))
		}
	}
}

// TestHistMergeOrderInvariance: every quantile, the count and the exact
// tails must not depend on the order shards are merged in; the float sum
// may differ only in ULPs.
func TestHistMergeOrderInvariance(t *testing.T) {
	rng := sim.NewRNG(11)
	shards := make([]*Hist, 6)
	for i := range shards {
		shards[i] = NewHist()
		for j := 0; j < 5000; j++ {
			shards[i].Observe(rng.Exp(0.01 * float64(i+1)))
		}
	}
	a, b := NewHist(), NewHist()
	for i := 0; i < len(shards); i++ {
		a.Merge(shards[i])
		b.Merge(shards[len(shards)-1-i])
	}
	if a.Count() != b.Count() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Fatalf("integer/exact state differs across merge orders")
	}
	for q := 0.0; q <= 1.0; q += 0.005 {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%v: %v vs %v across merge orders", q, a.Quantile(q), b.Quantile(q))
		}
	}
	if rel := math.Abs(a.Mean()-b.Mean()) / a.Mean(); rel > 1e-12 {
		t.Fatalf("means differ beyond float tolerance: %v vs %v", a.Mean(), b.Mean())
	}
}

func TestHistReset(t *testing.T) {
	h := NewHist()
	h.Observe(1)
	h.Observe(math.NaN())
	h.Reset()
	if h.Count() != 0 || h.dropped != 0 || h.Sum() != 0 {
		t.Fatalf("reset left state: count=%d dropped=%d sum=%v", h.Count(), h.dropped, h.Sum())
	}
	if !math.IsInf(h.Min(), 1) {
		t.Fatalf("reset min = %v", h.Min())
	}
	h.Observe(2)
	if h.Quantile(0.5) != 2 {
		t.Fatalf("post-reset quantile = %v", h.Quantile(0.5))
	}
}

func TestHistEachBucketCumulative(t *testing.T) {
	h := NewHist()
	vals := []float64{0, 0.001, 0.001, 0.5, 7}
	for _, v := range vals {
		h.Observe(v)
	}
	var cum uint64
	last := math.Inf(-1)
	h.EachBucket(func(upper float64, count uint64) {
		if upper < last {
			t.Fatalf("buckets out of order: %v after %v", upper, last)
		}
		last = upper
		cum += count
	})
	if cum != h.Count() {
		t.Fatalf("bucket counts sum to %d, count is %d", cum, h.Count())
	}
}

func TestHistObserveAndQuantileAllocFree(t *testing.T) {
	h := NewHist()
	v := 0.0012
	allocpin.Zero(t, 1000, func() {
		h.Observe(v)
		v *= 1.0001
	}, "(*Hist).Observe")
	allocpin.Zero(t, 100, func() {
		_ = h.Quantile(0.95)
	}, "(*Hist).Quantile")
	allocpin.Zero(t, 100, func() {
		h.Merge(h)
	}, "(*Hist).Merge")
}
