package ployon

import "math"

// Valid reports whether every feature is inside [0,1].
func (s Shape) Valid() bool {
	for _, v := range s {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// Congruent reports whether the two ployons' interfaces match at or above
// the threshold — the docking acceptance test of the DCP.
func (p *Ployon) Congruent(q *Ployon, threshold float64) bool {
	return Congruence(p.Shape, q.Shape) >= threshold
}
