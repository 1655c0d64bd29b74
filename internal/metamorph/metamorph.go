// Package metamorph implements the Pulsating Metamorphosis Principle's
// horizontal (inter-node) wandering (Definition 3.1): functions migrate
// between ships toward demand and the ships specialize/aggregate into
// virtual outstanding networks (Figure 3, "ex-pulsing"). Vertical
// (intra-node) wandering, a ship spawning overlay roles inside itself
// (Figure 4, "in-pulsing"), is a ship operation (ship.InstallAux).
//
// # Scale discipline
//
// Pulses reuse engine-owned scratch (the role census buffer) instead of
// building per-ship slices, and the outstanding-network census has a CSR
// scratch form (OutstandingInto) that groups ship indices by role with
// two counting passes and no map.
package metamorph

import (
	"viator/internal/roles"
	"viator/internal/ship"
	"viator/internal/stats"
)

// DemandFn reports the local demand for role k at ship index i — usually
// derived from fact activations or traffic counters.
type DemandFn func(i int, k roles.Kind) float64

// Config tunes the pulse dynamics.
type Config struct {
	// Hysteresis is the relative advantage a competing role needs over
	// the current one before a ship switches (prevents flapping).
	Hysteresis float64
	// CandidateRoles is the role set horizontal wandering chooses from.
	CandidateRoles []roles.Kind
}

// DefaultConfig returns the pulse parameters of the figure experiments.
func DefaultConfig() Config {
	return Config{
		Hysteresis: 1.2,
		CandidateRoles: []roles.Kind{
			roles.Fusion, roles.Fission, roles.Caching, roles.Delegation,
			roles.Filtering, roles.Transcoding, roles.Boosting, roles.SecurityMgmt,
		},
	}
}

// Engine drives metamorphosis pulses over a ship population.
type Engine struct {
	cfg   Config
	Ships []*ship.Ship

	// Horizontal counts completed role migrations.
	Horizontal int

	countScratch []int
}

// New creates an engine over the given ships.
func New(cfg Config, ships []*ship.Ship) *Engine {
	if len(cfg.CandidateRoles) == 0 {
		panic("metamorph: no candidate roles")
	}
	return &Engine{cfg: cfg, Ships: ships, countScratch: make([]int, roles.NumKinds)}
}

// HorizontalPulse performs one inter-node wandering step: every alive
// ship evaluates local demand across the candidate roles and switches its
// modal function when another role's demand beats the current one by the
// hysteresis factor. It returns the number of role migrations and the
// total reconfiguration latency incurred.
//
// The hysteresis comparison is strict: a challenger whose demand equals
// curDemand×Hysteresis exactly is enough to move (pinned by
// TestHysteresisBoundaryExact).
//
//viator:noalloc
func (e *Engine) HorizontalPulse(demand DemandFn) (migrations int, latency float64) {
	for i, s := range e.Ships {
		if s.State() != ship.Alive {
			continue
		}
		cur := s.ModalRole()
		curDemand := demand(i, cur)
		best := cur
		bestDemand := curDemand
		for _, k := range e.cfg.CandidateRoles {
			if d := demand(i, k); d > bestDemand {
				best = k
				bestDemand = d
			}
		}
		if best == cur {
			continue
		}
		if curDemand > 0 && bestDemand < curDemand*e.cfg.Hysteresis {
			continue // not enough advantage to move
		}
		lat, err := s.SetModalRole(best)
		if err != nil {
			continue
		}
		migrations++
		latency += lat
	}
	e.Horizontal += migrations
	return migrations, latency
}

// Outstanding is the caller-owned scratch form of the outstanding
// -network census: alive ship indices grouped by modal role in CSR
// layout. The zero value is ready for OutstandingInto.
type Outstanding struct {
	// Start[k]..Start[k+1] bounds role k's span in Ships.
	Start [roles.NumKinds + 1]int32
	// Ships holds alive ship indices grouped by role, ascending within
	// each group.
	Ships []int32
	// Distinct counts roles with at least one alive ship — the number of
	// virtual outstanding networks.
	Distinct int
}

// outstandingInto fills o from ships with two counting passes.
//
//viator:noalloc
func outstandingInto(o *Outstanding, ships []*ship.Ship) {
	var counts [roles.NumKinds]int32
	alive := 0
	for _, s := range ships {
		if s.State() == ship.Alive {
			counts[s.ModalRole()]++
			alive++
		}
	}
	o.Distinct = 0
	pos := int32(0)
	for k := 0; k < int(roles.NumKinds); k++ {
		o.Start[k] = pos
		pos += counts[k]
		if counts[k] > 0 {
			o.Distinct++
		}
		counts[k] = o.Start[k] // reuse as fill cursor
	}
	o.Start[roles.NumKinds] = pos
	buf := o.Ships[:0]
	for i := 0; i < alive; i++ {
		buf = append(buf, 0) //viator:alloc-ok amortized scratch growth; steady state reuses capacity
	}
	for i, s := range ships {
		if s.State() == ship.Alive {
			k := s.ModalRole()
			buf[counts[k]] = int32(i)
			counts[k]++
		}
	}
	o.Ships = buf
}

// OutstandingInto runs the census over the engine's fleet into o.
func (e *Engine) OutstandingInto(o *Outstanding) { outstandingInto(o, e.Ships) }

// RoleEntropy quantifies the functional differentiation of the fleet in
// bits — the measurable form of Figure 1's "different shapes of the
// nodes". Zero means every ship plays the same role. The engine method
// reuses a census buffer; the package function is the allocating form.
//
//viator:noalloc
func (e *Engine) RoleEntropy() float64 {
	counts := e.countScratch
	for i := range counts {
		counts[i] = 0
	}
	for _, s := range e.Ships {
		if s.State() == ship.Alive {
			counts[s.ModalRole()]++
		}
	}
	return stats.Entropy(counts)
}

// RoleEntropy is the allocating form of Engine.RoleEntropy over an
// arbitrary fleet.
func RoleEntropy(ships []*ship.Ship) float64 {
	counts := make([]int, roles.NumKinds)
	for _, s := range ships {
		if s.State() == ship.Alive {
			counts[s.ModalRole()]++
		}
	}
	return stats.Entropy(counts)
}
