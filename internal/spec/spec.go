// Package spec is the Go rendition of the artifact the paper's outlook
// reports: "the formal specification and verification of a generic
// adaptive routing protocol for active ad-hoc wireless networks"
// (checked there with TLA+/TLC, here with the mc model checker).
//
// The protocol maintains routes from every node toward a single
// destination (node 0) over a topology whose links appear and disappear
// (node mobility), using the feasibility rule of distance-decreasing next
// hops for loop freedom, and atomic route-error cascades on link failure
// (the RERR analogue). The checked properties:
//
//	Safety    — next-hop validity, hop-count feasibility, loop freedom.
//	Liveness  — once the topology stabilizes while connected, every node
//	            eventually holds a valid route (route-request leads to
//	            route-established).
package spec

import (
	"viator/internal/mc"
)

// MaxN is the maximum model size (state arrays are fixed for
// comparability); practical exhaustive checking uses N in 3..5.
const MaxN = 5

// State is one protocol configuration. The zero node is the destination
// and always valid with hop count 0. Route[n] is the next hop toward 0,
// -1 when n has no route. Budget bounds remaining topology changes so
// the liveness property has a stable suffix to quantify over.
type State struct {
	Links  uint16 // bitmask over node pairs, pairIndex(i,j)
	Route  [MaxN]int8
	Hops   [MaxN]uint8
	Budget uint8
}

// Config sizes the model.
type Config struct {
	// N is the node count (3..MaxN).
	N int
	// Budget is how many link toggles the environment may perform.
	Budget uint8
	// InitialLinks lists the initially-up node pairs; nil means fully
	// connected.
	InitialLinks [][2]int

	// DisableErrorCascade removes the atomic route-error propagation
	// after topology changes — a deliberately buggy protocol variant.
	// The model checker must find the resulting NextHopValid violation;
	// this is the regression that validates the checker itself (a TLC
	// user's first sanity experiment).
	DisableErrorCascade bool
}

// DefaultConfig is the configuration of experiment E11: 4 nodes, full
// initial mesh, 2 topology changes.
func DefaultConfig() Config { return Config{N: 4, Budget: 2} }

// pairIndex maps an unordered node pair to a bit position.
func pairIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Sum of row offsets for a strictly upper-triangular matrix.
	idx := 0
	for r := 0; r < i; r++ {
		idx += MaxN - 1 - r
	}
	return idx + (j - i - 1)
}

// linkUp tests the pair bit.
func (s State) linkUp(i, j int) bool {
	return s.Links&(1<<pairIndex(i, j)) != 0
}

// valid reports whether node n holds a route.
func (s State) valid(n int) bool { return s.Route[n] >= 0 }

// Protocol is the transition system plus its configuration.
type Protocol struct {
	cfg Config
}

// New builds the protocol model.
func New(cfg Config) *Protocol {
	if cfg.N < 2 || cfg.N > MaxN {
		panic("spec: N must be in 2..MaxN")
	}
	return &Protocol{cfg: cfg}
}

// Init returns the single initial state: configured links, destination
// route installed, every other node routeless, full budget.
func (p *Protocol) Init() []State {
	var s State
	if p.cfg.InitialLinks == nil {
		for i := 0; i < p.cfg.N; i++ {
			for j := i + 1; j < p.cfg.N; j++ {
				s.Links |= 1 << pairIndex(i, j)
			}
		}
	} else {
		for _, pr := range p.cfg.InitialLinks {
			s.Links |= 1 << pairIndex(pr[0], pr[1])
		}
	}
	for n := 0; n < MaxN; n++ {
		s.Route[n] = -1
	}
	s.Route[0] = 0
	s.Budget = p.cfg.Budget
	return []State{s}
}

// cascade atomically invalidates every route made inconsistent by a
// topology change, propagating transitively (the RERR wave modeled as one
// atomic detection step).
func (p *Protocol) cascade(s State) State {
	for changed := true; changed; {
		changed = false
		for n := 1; n < p.cfg.N; n++ {
			if !s.valid(n) {
				continue
			}
			m := int(s.Route[n])
			bad := !s.linkUp(n, m) ||
				(m != 0 && !s.valid(m)) ||
				(s.valid(n) && s.Hops[n] != s.Hops[m]+1)
			if bad {
				s.Route[n] = -1
				s.Hops[n] = 0
				changed = true
			}
		}
	}
	return s
}

// Next enumerates successor states: environment link toggles (bounded by
// Budget) and protocol route acceptances.
func (p *Protocol) Next(s State) []State {
	var out []State
	// Environment: toggle any link while budget remains; detection and
	// error propagation happen atomically with the change.
	if s.Budget > 0 {
		for i := 0; i < p.cfg.N; i++ {
			for j := i + 1; j < p.cfg.N; j++ {
				t := s
				t.Links ^= 1 << pairIndex(i, j)
				t.Budget--
				if !p.cfg.DisableErrorCascade {
					t = p.cascade(t)
				}
				out = append(out, t)
			}
		}
	}
	// Protocol: an invalid node adjacent to a valid node adopts it as
	// next hop under the feasibility rule (strictly increasing hop count,
	// bounded by N).
	for n := 1; n < p.cfg.N; n++ {
		if s.valid(n) {
			continue
		}
		for m := 0; m < p.cfg.N; m++ {
			if m == n || !s.linkUp(n, m) || !s.valid(m) {
				continue
			}
			if int(s.Hops[m])+1 > p.cfg.N {
				continue
			}
			t := s
			t.Route[n] = int8(m)
			t.Hops[n] = s.Hops[m] + 1
			out = append(out, t)
		}
	}
	return out
}

// connectedToDest reports whether every node can reach node 0 over up
// links.
func (p *Protocol) connectedToDest(s State) bool {
	var seen [MaxN]bool
	seen[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := 0; v < p.cfg.N; v++ {
			if v == u || seen[v] || !s.linkUp(u, v) {
				continue
			}
			seen[v] = true
			queue = append(queue, v)
		}
	}
	for n := 0; n < p.cfg.N; n++ {
		if !seen[n] {
			return false
		}
	}
	return true
}

// AllValid reports whether every node holds a route.
func (p *Protocol) AllValid(s State) bool {
	for n := 0; n < p.cfg.N; n++ {
		if !s.valid(n) {
			return false
		}
	}
	return true
}

// System assembles the transition system with the safety invariants.
func (p *Protocol) System() mc.System[State] {
	return mc.System[State]{
		Init: p.Init,
		Next: p.Next,
		Invariants: []mc.Invariant[State]{
			{Name: "DestAlwaysValid", Pred: func(s State) bool {
				return s.Route[0] == 0 && s.Hops[0] == 0
			}},
			{Name: "NextHopValid", Pred: func(s State) bool {
				for n := 1; n < p.cfg.N; n++ {
					if !s.valid(n) {
						continue
					}
					m := int(s.Route[n])
					if m < 0 || m >= p.cfg.N || m == n {
						return false
					}
					if !s.linkUp(n, m) {
						return false
					}
					if m != 0 && !s.valid(m) {
						return false
					}
				}
				return true
			}},
			{Name: "HopFeasibility", Pred: func(s State) bool {
				for n := 1; n < p.cfg.N; n++ {
					if s.valid(n) && s.Hops[n] != s.Hops[int(s.Route[n])]+1 {
						return false
					}
				}
				return true
			}},
			{Name: "LoopFreedom", Pred: func(s State) bool {
				for n := 1; n < p.cfg.N; n++ {
					if !s.valid(n) {
						continue
					}
					cur := n
					for steps := 0; cur != 0; steps++ {
						if steps > p.cfg.N {
							return false
						}
						cur = int(s.Route[cur])
					}
				}
				return true
			}},
		},
	}
}

// CheckSafety exhaustively verifies the invariants.
func (p *Protocol) CheckSafety(maxStates int) *mc.Result[State] {
	return mc.Check(p.System(), mc.Options{MaxStates: maxStates, IgnoreDeadlocks: true})
}

// CheckLiveness verifies route-establishment: from every reachable state
// whose topology has stabilized (budget exhausted) while connected to the
// destination, all executions reach the all-routes-valid state.
func (p *Protocol) CheckLiveness(maxStates int) *mc.LeadsToResult[State] {
	sys := p.System()
	return mc.LeadsTo(sys,
		func(s State) bool { return s.Budget == 0 && p.connectedToDest(s) },
		func(s State) bool { return p.AllValid(s) },
		maxStates)
}
