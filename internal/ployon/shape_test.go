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
