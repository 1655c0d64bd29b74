package nodeos

import "viator/internal/vm"

// CodeStore is the per-node program repository behind the paper's "code
// distribution mechanism [that] ensures that shuttle processing routines
// are automatically and dynamically transferred to the ships where they
// are required". It is an LRU-bounded map from code identifiers to
// programs, with hit/miss accounting that the demand-distribution
// experiments read.
type CodeStore struct {
	capacity int
	progs    map[string]vm.Program
	order    []string // LRU, oldest first

	Hits   uint64
	Misses uint64
	// Installed counts program insertions (initial + re-fetches).
	Installed uint64
	// Evictions counts capacity-pressure removals.
	Evictions uint64
}

// NewCodeStore builds a store holding up to capacity programs;
// capacity <= 0 means unbounded.
func NewCodeStore(capacity int) *CodeStore {
	return &CodeStore{capacity: capacity, progs: make(map[string]vm.Program)}
}

func (s *CodeStore) touch(id string) {
	for i, k := range s.order {
		if k == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.order = append(s.order, id)
}

// Put installs a program under id, evicting the least recently used entry
// under capacity pressure.
func (s *CodeStore) Put(id string, p vm.Program) {
	if _, exists := s.progs[id]; !exists && s.capacity > 0 && len(s.progs) >= s.capacity {
		victim := s.order[0]
		s.order = s.order[1:]
		delete(s.progs, victim)
		s.Evictions++
	}
	s.progs[id] = p
	s.touch(id)
	s.Installed++
}

// Get fetches a program, recording a hit or miss.
func (s *CodeStore) Get(id string) (vm.Program, bool) {
	p, ok := s.progs[id]
	if ok {
		s.Hits++
		s.touch(id)
	} else {
		s.Misses++
	}
	return p, ok
}

// Has checks presence without accounting (routing decisions peek).
func (s *CodeStore) Has(id string) bool {
	_, ok := s.progs[id]
	return ok
}
