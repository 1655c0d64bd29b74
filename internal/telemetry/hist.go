// Package telemetry is the streaming observability substrate for running
// networks at scale: fixed-memory mergeable histograms, a sim-time flight
// recorder, and per-flow QoS scorecards, plus the export pipeline that
// turns all three into JSON-lines series and Prometheus text snapshots.
//
// It complements stats, which keeps every observation and answers exact
// order-statistic questions. The two are deliberate cost tiers:
//
//   - stats.Summary — exact percentiles, O(n) retained memory. The sink
//     wherever a paper table depends on exact order statistics.
//   - telemetry.Hist — bounded relative error (≤ 1% on quantiles), O(1)
//     per observation, fixed memory, exact Merge. The sink for stress
//     scenarios and anything that must survive millions of packets.
//
// Everything in this package is deterministic: no wall clocks, no
// randomness, no map iteration on any output path. Given the same
// observation sequence, every query and every exported byte replays
// exactly, and Hist/ScoreSet merges commute on all integer state
// (counts, min, max — see Merge), which is what lets the replicate
// harness fan observations over worker pools and still produce
// byte-identical output for any worker count.
package telemetry

import "math"

// Hist geometry: log-linear (HDR-style) buckets over the positive float64
// range. Each power-of-two octave [2^e, 2^(e+1)) is subdivided into
// histSub linear sub-buckets, so a bucket's width is 2^e/histSub and the
// worst-case relative error of reporting a value by its bucket is
// 1/histSub ≈ 0.78% — under the 1% contract. Bucket indexes come straight
// from the float64 bit pattern (exponent ‖ top mantissa bits), so Observe
// is a handful of integer ops and one slice increment.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits // linear sub-buckets per octave

	// Covered value range: [2^histMinExp, 2^(histMaxExp+1)). Values below
	// clamp into the first bucket, values above into the last; Min/Max
	// stay exact either way. Latencies (seconds) and sizes (bytes) both
	// live comfortably inside [2^-30 ≈ 1e-9, 2^31 ≈ 2.1e9).
	histMinExp = -30
	histMaxExp = 30

	histOctaves = histMaxExp - histMinExp + 1
	histBuckets = histOctaves * histSub

	// Biased float64 exponent of 2^histMinExp.
	histMinBE = 1023 + histMinExp
	histMaxBE = 1023 + histMaxExp
)

// Hist is a fixed-memory streaming histogram for non-negative
// measurements (latencies, sizes, depths). Observe is allocation-free and
// O(1); Quantile answers with relative error bounded by 1/histSub
// (≈ 0.78%) against the exact order statistic, with exact Min/Max at the
// tails; Merge folds another histogram in exactly (bucket-wise integer
// addition), so per-replicate histograms pool into the same result the
// union stream would have produced.
//
// Every Hist shares one global geometry, so any two are mergeable.
// Memory is ~61 KiB per instance, independent of observation count.
type Hist struct {
	counts  [histBuckets]uint64
	count   uint64 // observations in buckets + zeros (excludes dropped)
	zeros   uint64 // observations with v == 0
	dropped uint64 // NaN or negative observations, excluded from stats
	sum     float64
	min     float64
	max     float64
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{min: math.Inf(1), max: math.Inf(-1)}
}

// bucketIndex maps a positive value to its bucket. Out-of-range values
// clamp to the first/last bucket (Min/Max remain exact regardless).
func bucketIndex(v float64) int {
	bits := math.Float64bits(v)
	be := int(bits >> 52) // biased exponent; sign bit is 0 for v > 0
	if be < histMinBE {
		return 0
	}
	if be > histMaxBE {
		return histBuckets - 1
	}
	sub := int(bits >> (52 - histSubBits) & (histSub - 1))
	return (be-histMinBE)<<histSubBits | sub
}

// bucketBounds returns the [lo, lo+w) value range of bucket i.
func bucketBounds(i int) (lo, w float64) {
	octave := i >> histSubBits
	sub := i & (histSub - 1)
	base := math.Ldexp(1, octave+histMinExp)
	w = base / histSub
	return base + float64(sub)*w, w
}

// Observe records one measurement. NaN, infinite and negative values are
// counted in Dropped and otherwise ignored (any of them would poison the
// running sum or the exported min/max); zero is tracked exactly.
// 0 allocs/op.
//
//viator:noalloc
func (h *Hist) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		h.dropped++
		return
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if v == 0 {
		h.zeros++
		return
	}
	h.counts[bucketIndex(v)]++
}

// Count returns the number of recorded observations (excluding dropped).
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the exact sum of recorded observations.
func (h *Hist) Sum() float64 { return h.sum }

// Mean returns the exact mean of recorded observations, 0 when empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest recorded observation (exact), +Inf when empty.
func (h *Hist) Min() float64 { return h.min }

// Max returns the largest recorded observation (exact), -Inf when empty.
func (h *Hist) Max() float64 { return h.max }

// Quantile returns an estimate of the q-quantile (q in [0,1]) of the
// recorded stream, using the same linear interpolation between adjacent
// order statistics as stats.Summary.Percentile — the two are directly
// comparable. Each order statistic is estimated from its bucket
// (interpolated by rank position within the bucket), so the estimate's
// relative error against the exact answer is bounded by 1/histSub
// (≈ 0.78%); q <= 0 and q >= 1 return the exact Min and Max. Empty
// histograms return 0; NaN q returns NaN. Deterministic: the same bucket
// state always yields the same answer, regardless of the observation or
// merge order that produced it.
//
//viator:noalloc
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count-1) // 0-indexed interpolated position
	lo := math.Floor(rank)
	frac := rank - lo
	vLo := h.orderStat(uint64(lo) + 1)
	if frac == 0 {
		return vLo
	}
	vHi := h.orderStat(uint64(lo) + 2)
	return vLo*(1-frac) + vHi*frac
}

// orderStat estimates the rank-th smallest recorded value (1-indexed) by
// walking the cumulative bucket counts and interpolating by rank position
// within the containing bucket; the exact Min/Max clamp the estimate at
// the tails. Relative error is bounded by the bucket's relative width.
func (h *Hist) orderStat(rank uint64) float64 {
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	if rank <= h.zeros {
		return 0
	}
	cum := h.zeros
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		if rank <= cum+c {
			lo, w := bucketBounds(i)
			est := lo + w*(float64(rank-cum)-0.5)/float64(c)
			// Exact extremes beat the bucket estimate when they bind.
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
		cum += c
	}
	return h.max // unreachable unless counters were corrupted externally
}

// Merge folds o into h bucket-by-bucket. The result is exactly the
// histogram the concatenated observation streams would have produced,
// except Sum, which is a float64 accumulation and therefore reproduces
// the concatenated stream's sum only up to addition order (all integer
// state — Count, bucket counts, zeros, dropped — and Min/Max are exact
// and merge-order invariant).
//
//viator:noalloc
func (h *Hist) Merge(o *Hist) {
	for i := 0; i < histBuckets; i++ {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.zeros += o.zeros
	h.dropped += o.dropped
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// EachBucket calls f for every non-empty bucket in ascending value order
// with the bucket's upper bound and its count. The zero bucket (if any)
// is reported first with upper bound 0. Used by the Prometheus exporter
// to emit a bounded cumulative bucket list.
func (h *Hist) EachBucket(f func(upper float64, count uint64)) {
	if h.zeros > 0 {
		f(0, h.zeros)
	}
	for i := 0; i < histBuckets; i++ {
		if c := h.counts[i]; c > 0 {
			lo, w := bucketBounds(i)
			f(lo+w, c)
		}
	}
}
