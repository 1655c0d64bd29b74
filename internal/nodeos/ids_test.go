package nodeos

import (
	"errors"
	"fmt"
	"sort"
)

// IDs returns stored identifiers, sorted.
func (s *CodeStore) IDs() []string {
	out := make([]string, 0, len(s.progs))
	for id := range s.progs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// HostIDs returns the bound primitive ids, sorted.
func (e *EE) HostIDs() []int64 {
	out := append([]int64(nil), e.ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// errNoEE reports an unknown execution environment.
var errNoEE = errors.New("nodeos: no such execution environment")

// RemoveEE tears down an EE and releases its quota.
func (n *NodeOS) RemoveEE(name string) error {
	ee, ok := n.ees[name]
	if !ok {
		return fmt.Errorf("%w: %q", errNoEE, name)
	}
	delete(n.ees, name)
	for i, o := range n.order {
		if o == name {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	n.used = n.used.Sub(ee.Quota)
	return nil
}
