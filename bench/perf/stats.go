package perf

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (the mean of the middle pair for even
// counts), 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least p of the samples at or below it. 0 for no
// samples.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// TailMean returns the mean of the slowest share (0 < share <= 1) of xs,
// at least one sample: the expected value of the tail a percentile would
// only bound. Unlike a percentile it changes smoothly when the tail is a
// few distinct groups — one first step, two refresh steps per run — so it
// does not jump between them from one run to the next. 0 for no samples.
func TailMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(share * float64(len(s))))
	if k < 1 {
		k = 1
	}
	sum := 0.0
	for _, x := range s[len(s)-k:] {
		sum += x
	}
	return sum / float64(k)
}

// Quartiles returns the first and third quartiles of xs computed exactly
// as Python's statistics.quantiles(xs, n=4) does (the default "exclusive"
// method), so spreads reported here match the ones an external check
// computes from the same values. With fewer than two samples both
// quartiles are the lone value (or 0).
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// Spread is the interquartile range of xs as a share of its median, the
// run-to-run noise measure bounds are set against. 0 when the median is 0.
func Spread(xs []float64) float64 {
	med := Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
