// Package kq implements knowledge quanta, the paper's Definition 3
// machinery: facts with transmission-intensity weights and frequency
// thresholds, per-ship knowledge bases with activation decay and eviction,
// net functions whose lifetime is determined by their facts, and genetic
// transcoding — the binary encoding of a ship's state (roles, facts,
// driver code) for transport inside shuttles.
package kq

import (
	"math"
	"sort"
)

// FactID names a fact (an event or experience) in the Wandering Network.
type FactID string

// fact is the stored form: an exponentially decaying activation level that
// rises with each observation, weighted by transmission intensity.
type fact struct {
	id         FactID
	activation float64 // value as of lastT
	lastT      float64
}

// Store is one ship's knowledge base. Facts gain activation when observed
// and decay exponentially with the configured half-life; a fact whose
// activation falls below Threshold "does not reach its frequency
// threshold" and is deleted at the next sweep to leave space for new
// facts (Definition 3.3).
type Store struct {
	// HalfLife is the time for an unrefreshed fact's activation to halve.
	HalfLife float64
	// Threshold is the minimum activation for a fact to stay alive.
	Threshold float64
	// Capacity bounds the number of stored facts; observing a new fact at
	// capacity evicts the weakest one.
	Capacity int

	facts map[FactID]*fact

	// Evicted counts facts removed by sweep or capacity pressure.
	Evicted uint64
}

// NewStore builds a knowledge base. halfLife and threshold must be
// positive; capacity <= 0 means unbounded.
func NewStore(halfLife, threshold float64, capacity int) *Store {
	if halfLife <= 0 || threshold <= 0 {
		panic("kq: half-life and threshold must be positive")
	}
	return &Store{HalfLife: halfLife, Threshold: threshold, Capacity: capacity, facts: make(map[FactID]*fact)}
}

func (s *Store) decayed(f *fact, now float64) float64 {
	dt := now - f.lastT
	if dt <= 0 {
		return f.activation
	}
	return f.activation * math.Exp2(-dt/s.HalfLife)
}

// Observe records one occurrence of the fact with the given weight
// (its transmission intensity / bandwidth) at time now.
func (s *Store) Observe(id FactID, weight, now float64) {
	if weight < 0 {
		panic("kq: negative fact weight")
	}
	f, ok := s.facts[id]
	if !ok {
		if s.Capacity > 0 && len(s.facts) >= s.Capacity {
			s.evictWeakest(now)
		}
		s.facts[id] = &fact{id: id, activation: weight, lastT: now}
		return
	}
	f.activation = s.decayed(f, now) + weight
	f.lastT = now
}

func (s *Store) evictWeakest(now float64) {
	var victim FactID
	worst := math.Inf(1)
	// Map order is random; break activation ties by ID for determinism.
	//viator:maporder-safe argmin over (activation, ID) is a strict total order, so the winner is visit-order independent
	for id, f := range s.facts {
		a := s.decayed(f, now)
		if a < worst || (a == worst && id < victim) {
			worst = a
			victim = id
		}
	}
	if victim != "" {
		delete(s.facts, victim)
		s.Evicted++
	}
}

// Activation returns the fact's current activation (0 when absent).
func (s *Store) Activation(id FactID, now float64) float64 {
	f, ok := s.facts[id]
	if !ok {
		return 0
	}
	return s.decayed(f, now)
}

// Alive reports whether the fact is present with activation ≥ Threshold.
func (s *Store) Alive(id FactID, now float64) bool {
	return s.Activation(id, now) >= s.Threshold
}

// Sweep deletes every fact below threshold and returns the evicted IDs in
// sorted order. Ships run this periodically (the "pulse").
func (s *Store) Sweep(now float64) []FactID {
	return s.SweepInto(nil, now)
}

// SweepInto is the caller-owned-scratch form of Sweep: evicted IDs land
// in buf[:0], sorted. The pulse loop sweeps every alive ship every pulse
// and discards the result, so reusing one buffer there removes a
// per-ship-per-pulse allocation.
//
//viator:noalloc
func (s *Store) SweepInto(buf []FactID, now float64) []FactID {
	out := buf[:0]
	//viator:maporder-safe per-key threshold filter (decayed is a pure read); evictions commute and out is sorted before return
	for id, f := range s.facts {
		if s.decayed(f, now) < s.Threshold {
			out = append(out, id) //viator:alloc-ok amortized scratch growth; steady state reuses buf's capacity
			delete(s.facts, id)
			s.Evicted++
		}
	}
	sortFactIDs(out)
	return out
}

// Facts returns the IDs of all alive facts at now, sorted.
func (s *Store) Facts(now float64) []FactID {
	return s.FactsInto(nil, now)
}

// FactsInto appends the IDs of all alive facts at now to buf[:0] and
// returns the sorted result — the caller-owned-scratch form of Facts.
// With sufficient capacity in buf it performs no allocations, which is
// what lets the pulse loop's resonance observation run allocation-free.
//
//viator:noalloc
func (s *Store) FactsInto(buf []FactID, now float64) []FactID {
	out := buf[:0]
	//viator:maporder-safe pure filter (decayed is a read-only method) collecting into out, which is sorted before return
	for id, f := range s.facts {
		if s.decayed(f, now) >= s.Threshold {
			out = append(out, id) //viator:alloc-ok amortized scratch growth; steady state reuses buf's capacity
		}
	}
	sortFactIDs(out)
	return out
}

// sortFactIDs sorts in place by insertion sort: fact sets are small (a
// ship's working set), and unlike sort.Slice the loop never boxes the
// slice header, keeping FactsInto allocation-free.
func sortFactIDs(s []FactID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Lifetime predicts how long the fact stays above threshold with no
// further observations: t = halfLife * log2(activation/threshold).
func (s *Store) Lifetime(id FactID, now float64) float64 {
	a := s.Activation(id, now)
	if a < s.Threshold {
		return 0
	}
	return s.HalfLife * math.Log2(a/s.Threshold)
}

// NetFunction is a network function "based on one or more facts"
// (Definition 3.2). Which facts determine its presence is defined
// individually per function via Requires and MinAlive.
type NetFunction struct {
	Name     string
	Requires []FactID
	// MinAlive is how many of Requires must be alive for the function to
	// exist; 0 means all of them.
	MinAlive int
}

// Alive reports whether the function currently exists in the store: its
// lifetime is the lifetime of its facts (Definition 3.3).
func (nf *NetFunction) Alive(s *Store, now float64) bool {
	need := nf.MinAlive
	if need <= 0 {
		need = len(nf.Requires)
	}
	alive := 0
	for _, id := range nf.Requires {
		if s.Alive(id, now) {
			alive++
			if alive >= need {
				return true
			}
		}
	}
	return need == 0
}

// Lifetime returns how long the function survives with no new facts: the
// k-th largest fact lifetime where k = MinAlive (or the minimum over all
// required facts when MinAlive is 0 = all).
func (nf *NetFunction) Lifetime(s *Store, now float64) float64 {
	if len(nf.Requires) == 0 {
		return 0
	}
	lifetimes := make([]float64, 0, len(nf.Requires))
	for _, id := range nf.Requires {
		lifetimes = append(lifetimes, s.Lifetime(id, now))
	}
	sort.Float64s(lifetimes) // ascending
	need := nf.MinAlive
	if need <= 0 {
		need = len(nf.Requires)
	}
	if need > len(lifetimes) {
		return 0
	}
	// The function dies when the number of alive facts drops below need,
	// i.e. when the need-th longest-lived fact dies.
	return lifetimes[len(lifetimes)-need]
}

// FactRecord is the wire form of one fact observation inside a quantum.
type FactRecord struct {
	ID     FactID
	Weight float64
}

// Quantum is a knowledge quantum: "the combination of net function and
// facts" (Definition 3.2) — the new capsule type distributed via shuttles.
type Quantum struct {
	Function NetFunction
	Facts    []FactRecord
}

// Absorb merges the quantum into a ship's knowledge base, observing every
// carried fact at time now. Exchanging quanta is how facts (and therefore
// functions) propagate and have their lifetimes prolonged.
func (q *Quantum) Absorb(s *Store, now float64) {
	for _, fr := range q.Facts {
		s.Observe(fr.ID, fr.Weight, now)
	}
}
