package cluster

import (
	"viator/internal/kq"
	"viator/internal/ship"
)

// CouplingScratch holds the reusable fact buffers for
// KnowledgeCouplingInto; the zero value is ready to use.
type CouplingScratch struct {
	fa, fb []kq.FactID
}

// KnowledgeCouplingInto measures the structural coupling of two members
// as the Jaccard similarity of their alive fact sets — the paper's
// "structure-determined engagement of a given entity with another" —
// through caller-owned scratch: both fact sets land in the scratch
// buffers (sorted, via kq.FactsInto) and the intersection is counted by
// a linear merge instead of a hash set.
func KnowledgeCouplingInto(sc *CouplingScratch, a, b *ship.Ship, now float64) float64 {
	sc.fa = a.KB.FactsInto(sc.fa, now)
	sc.fb = b.KB.FactsInto(sc.fb, now)
	fa, fb := sc.fa, sc.fb
	if len(fa) == 0 && len(fb) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(fa) && j < len(fb); {
		switch {
		case fa[i] == fb[j]:
			inter++
			i++
			j++
		case fa[i] < fb[j]:
			i++
		default:
			j++
		}
	}
	union := len(fa) + len(fb) - inter
	return float64(inter) / float64(union)
}
