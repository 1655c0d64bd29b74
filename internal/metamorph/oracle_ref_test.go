package metamorph

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"viator/internal/allocpin"
	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/ship"
	"viator/internal/sim"
	"viator/internal/stats"
)

// This file retains the pre-overhaul pulse and census implementations
// verbatim as the oracle for the scratch-backed rewrite. Pulses mutate
// the ships they drive, so the property test runs twin fleets (ship
// construction is deterministic from config) through identical random
// demand/pressure schedules and compares every outcome.

type refEngine struct {
	cfg   Config
	Ships []*ship.Ship

	Horizontal int
}

func newRefEngine(cfg Config, ships []*ship.Ship) *refEngine {
	if len(cfg.CandidateRoles) == 0 {
		panic("metamorph: no candidate roles")
	}
	return &refEngine{cfg: cfg, Ships: ships}
}

func (e *refEngine) horizontalPulse(demand DemandFn) (migrations int, latency float64) {
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

func refOutstandingNetworks(ships []*ship.Ship) map[roles.Kind][]int {
	out := make(map[roles.Kind][]int)
	for i, s := range ships {
		if s.State() != ship.Alive {
			continue
		}
		out[s.ModalRole()] = append(out[s.ModalRole()], i)
	}
	for _, idx := range out {
		sort.Ints(idx)
	}
	return out
}

func refRoleEntropy(ships []*ship.Ship) float64 {
	counts := make([]int, roles.NumKinds)
	for _, s := range ships {
		if s.State() == ship.Alive {
			counts[s.ModalRole()]++
		}
	}
	return stats.Entropy(counts)
}

// mixedFleet builds n ships across all ployon classes.
func mixedFleet(t testing.TB, n int) []*ship.Ship {
	t.Helper()
	out := make([]*ship.Ship, n)
	for i := range out {
		s := ship.New(ship.DefaultConfig(ployon.ID(i+1), ployon.Class(i%int(ployon.NumClasses))))
		if err := s.Birth(); err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestPulsesMatchReference drives the rewrite and the verbatim old
// engine over twin fleets through the same random schedule of pulses,
// deaths and census reads.
func TestPulsesMatchReference(t *testing.T) {
	cand := DefaultConfig().CandidateRoles
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed * 131)
		const n = 24
		shipsE := mixedFleet(t, n)
		shipsR := mixedFleet(t, n)
		e := New(DefaultConfig(), shipsE)
		r := newRefEngine(DefaultConfig(), shipsR)
		demandTab := make([][roles.NumKinds]float64, n)
		var o Outstanding
		for step := 0; step < 120; step++ {
			switch rng.Intn(6) {
			case 0: // death lands in both fleets
				i := rng.Intn(n)
				shipsE[i].Kill()
				shipsR[i].Kill()
			case 1, 2: // horizontal pulse under a fresh random demand field
				for i := range demandTab {
					for _, k := range cand {
						demandTab[i][k] = rng.Float64() * 5
					}
				}
				demand := func(i int, k roles.Kind) float64 { return demandTab[i][k] }
				gm, gl := e.HorizontalPulse(demand)
				wm, wl := r.horizontalPulse(demand)
				if gm != wm || gl != wl {
					t.Fatalf("seed %d step %d: horizontal (%d,%v) != (%d,%v)", seed, step, gm, gl, wm, wl)
				}
			default: // census reads must agree with the reference views
				if got, want := OutstandingNetworks(shipsE), refOutstandingNetworks(shipsR); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: outstanding %v != %v", seed, step, got, want)
				}
				e.OutstandingInto(&o)
				if got, want := o.Distinct, len(refOutstandingNetworks(shipsR)); got != want {
					t.Fatalf("seed %d step %d: distinct %d != %d", seed, step, got, want)
				}
				for k := roles.Kind(0); k < roles.NumKinds; k++ {
					span := o.Span(k)
					want := refOutstandingNetworks(shipsR)[k]
					if len(span) != len(want) {
						t.Fatalf("seed %d step %d: span(%v) %v != %v", seed, step, k, span, want)
					}
					for i := range span {
						if int(span[i]) != want[i] {
							t.Fatalf("seed %d step %d: span(%v) %v != %v", seed, step, k, span, want)
						}
					}
				}
				if got, want := e.RoleEntropy(), refRoleEntropy(shipsR); got != want {
					t.Fatalf("seed %d step %d: entropy %v != %v", seed, step, got, want)
				}
				if got, want := RoleEntropy(shipsE), refRoleEntropy(shipsR); got != want {
					t.Fatalf("seed %d step %d: pkg entropy %v != %v", seed, step, got, want)
				}
			}
		}
		if e.Horizontal != r.Horizontal {
			t.Fatalf("seed %d: migrations %d != %d", seed, e.Horizontal, r.Horizontal)
		}
		for i := range shipsE {
			if shipsE[i].ModalRole() != shipsR[i].ModalRole() {
				t.Fatalf("seed %d: ship %d modal %v != %v", seed, i, shipsE[i].ModalRole(), shipsR[i].ModalRole())
			}
		}
	}
}

// TestHysteresisBoundaryExact pins the strict comparison in
// HorizontalPulse: a challenger whose demand equals curDemand×Hysteresis
// exactly is enough to move, and one float ulp below it is not. The
// values are chosen exactly representable (2.0 × 1.5 = 3.0) so the
// boundary is not blurred by rounding.
func TestHysteresisBoundaryExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hysteresis = 1.5
	cur, challenger := roles.Fusion, roles.Caching

	run := func(challengerDemand float64) (int, roles.Kind) {
		ships := mixedFleet(t, 1)
		if _, err := ships[0].SetModalRole(cur); err != nil {
			t.Fatal(err)
		}
		e := New(cfg, ships)
		migrations, _ := e.HorizontalPulse(func(i int, k roles.Kind) float64 {
			switch k {
			case cur:
				return 2.0
			case challenger:
				return challengerDemand
			default:
				return 0
			}
		})
		return migrations, ships[0].ModalRole()
	}

	if m, got := run(3.0); m != 1 || got != challenger {
		t.Fatalf("exact boundary must switch: migrations=%d role=%v", m, got)
	}
	if m, got := run(math.Nextafter(3.0, 0)); m != 0 || got != cur {
		t.Fatalf("one ulp below boundary must hold: migrations=%d role=%v", m, got)
	}
}

// TestPulsePathsAllocFree pins the steady-state pulse and census paths.
func TestPulsePathsAllocFree(t *testing.T) {
	ships := mixedFleet(t, 32)
	e := New(DefaultConfig(), ships)
	demand := func(i int, k roles.Kind) float64 { return 0 } // no movement
	var o Outstanding
	e.OutstandingInto(&o) // size the CSR scratch
	allocpin.Zero(t, 100, func() {
		e.HorizontalPulse(demand)
	}, "(*Engine).HorizontalPulse")
	allocpin.Zero(t, 100, func() {
		e.OutstandingInto(&o)
	}, "outstandingInto")
	allocpin.Zero(t, 100, func() {
		e.RoleEntropy()
	}, "(*Engine).RoleEntropy")
}

// OutstandingNetworks groups alive ships by modal role: each group is one
// "virtual outstanding network" of the same physical infrastructure
// (Figure 3). Keys with no ships are absent. This is the allocating map
// view of OutstandingInto.
func OutstandingNetworks(ships []*ship.Ship) map[roles.Kind][]int {
	var o Outstanding
	outstandingInto(&o, ships)
	out := make(map[roles.Kind][]int)
	for k := roles.Kind(0); k < roles.NumKinds; k++ {
		span := o.Span(k)
		if len(span) == 0 {
			continue
		}
		idx := make([]int, len(span))
		for i, v := range span {
			idx[i] = int(v)
		}
		out[k] = idx
	}
	return out
}

// Span returns role k's alive ship indices (shared with o.Ships).
func (o *Outstanding) Span(k roles.Kind) []int32 {
	return o.Ships[o.Start[k]:o.Start[k+1]]
}
