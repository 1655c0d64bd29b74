package sim

import (
	"math"
	"testing"
)

// Norm returns a normally distributed value via the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// Pick returns a uniformly chosen index weighted by w; w must contain at
// least one positive weight. Zero-weight entries are never chosen.
func (r *RNG) Pick(w []float64) int {
	var total float64
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		panic("sim: Pick with no positive weight")
	}
	t := r.Float64() * total
	for i, x := range w {
		if x <= 0 {
			continue
		}
		t -= x
		if t < 0 {
			return i
		}
	}
	// Floating point slack: return the last positive-weight index.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return 0
}

// Zipf returns a value in [0,n) following a Zipf distribution with exponent
// s; low indices are the popular ones. Used for realistic content and
// destination popularity in workloads.
func (r *RNG) Zipf(n int, s float64) int {
	// Inverse-CDF over precomputed harmonic weights would be faster for
	// repeated draws, but workload generators draw at most a few million
	// values, so the direct rejection-free scan is fine and allocation-free
	// callers can keep their own table.
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / math.Pow(float64(i), s)
	}
	t := r.Float64() * h
	for i := 1; i <= n; i++ {
		t -= 1 / math.Pow(float64(i), s)
		if t < 0 {
			return i - 1
		}
	}
	return n - 1
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(9)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("norm mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("norm stddev = %v", math.Sqrt(variance))
	}
}

func TestRNGPickRespectsZeroWeights(t *testing.T) {
	r := NewRNG(3)
	w := []float64{0, 1, 0, 2, 0}
	for i := 0; i < 1000; i++ {
		got := r.Pick(w)
		if got != 1 && got != 3 {
			t.Fatalf("picked zero-weight index %d", got)
		}
	}
}

func TestRNGPickProportions(t *testing.T) {
	r := NewRNG(4)
	w := []float64{1, 3}
	counts := [2]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(w)]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight-3/weight-1 ratio = %v, want ~3", ratio)
	}
}

func TestRNGZipfSkew(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		counts[r.Zipf(10, 1.0)]++
	}
	if counts[0] <= counts[5] || counts[0] <= counts[9] {
		t.Fatalf("zipf not skewed: %v", counts)
	}
}
