package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is not safe for concurrent use; give each simulation its
// own instance (Split derives independent streams).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams on every platform.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a new generator whose stream is statistically independent
// from the parent's. Use it to hand substreams to subsystems without
// coupling their consumption order.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
// Exponential inter-arrival times give Poisson traffic processes.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed value via the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
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
