package telemetry

import "math"

// Reset returns h to the empty state without releasing its memory.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count, h.zeros, h.dropped, h.sum = 0, 0, 0, 0
	h.min, h.max = math.Inf(1), math.Inf(-1)
}

// Reset clears all recorded samples and rollups (registrations survive),
// reusing every ring buffer. Counter baselines re-sample on reset so the
// first post-reset tick records a delta from "now", not from the old run.
func (r *Recorder) Reset() {
	r.ticks = 0
	for i := range r.series {
		s := &r.series[i]
		s.rolls, s.wN, s.wSum = 0, 0, 0
		if s.kind == Counter {
			s.prev = s.sample()
		}
	}
}
