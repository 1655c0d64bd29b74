package stats

import "testing"

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
