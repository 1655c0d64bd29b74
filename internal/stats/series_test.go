package stats

import (
	"sort"
	"testing"
)

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
