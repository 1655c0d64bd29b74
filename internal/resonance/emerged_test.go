package resonance

import (
	"sort"

	"viator/internal/kq"
)

// Emerged returns all functions emerged so far, sorted by name.
func (e *Engine) Emerged() []kq.NetFunction {
	out := make([]kq.NetFunction, 0, len(e.emerged))
	for _, nf := range e.emerged {
		out = append(out, nf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
