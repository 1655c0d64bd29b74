package metamorph

import (
	"testing"

	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/ship"
)

func fleet(t *testing.T, n int) []*ship.Ship {
	t.Helper()
	out := make([]*ship.Ship, n)
	for i := range out {
		s := ship.New(ship.DefaultConfig(ployon.ID(i+1), ployon.ClassServer))
		if err := s.Birth(); err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func TestHorizontalPulseSpecializes(t *testing.T) {
	ships := fleet(t, 4)
	e := New(DefaultConfig(), ships)
	// Demand: ship i wants candidate role i.
	cand := DefaultConfig().CandidateRoles
	demand := func(i int, k roles.Kind) float64 {
		if k == cand[i] {
			return 10
		}
		return 1
	}
	migrations, latency := e.HorizontalPulse(demand)
	if migrations != 4 {
		t.Fatalf("migrations = %d", migrations)
	}
	if latency <= 0 {
		t.Fatal("migration was free")
	}
	for i, s := range ships {
		if s.ModalRole() != cand[i] {
			t.Fatalf("ship %d role = %v, want %v", i, s.ModalRole(), cand[i])
		}
	}
	// A second pulse with the same demand is quiescent.
	migrations, _ = e.HorizontalPulse(demand)
	if migrations != 0 {
		t.Fatalf("stable demand still migrated %d", migrations)
	}
	if e.Horizontal != 4 {
		t.Fatalf("total horizontal = %d", e.Horizontal)
	}
}

func TestHorizontalHysteresisPreventsFlapping(t *testing.T) {
	ships := fleet(t, 1)
	e := New(Config{Hysteresis: 1.5, CandidateRoles: []roles.Kind{roles.Fusion, roles.Caching}}, ships)
	// Establish fusion.
	e.HorizontalPulse(func(i int, k roles.Kind) float64 {
		if k == roles.Fusion {
			return 10
		}
		return 0
	})
	// Caching demand only 20% higher: below 1.5x hysteresis, no switch.
	m, _ := e.HorizontalPulse(func(i int, k roles.Kind) float64 {
		switch k {
		case roles.Fusion:
			return 10
		case roles.Caching:
			return 12
		}
		return 0
	})
	if m != 0 || ships[0].ModalRole() != roles.Fusion {
		t.Fatal("hysteresis failed to hold role")
	}
	// 2x advantage: switch.
	m, _ = e.HorizontalPulse(func(i int, k roles.Kind) float64 {
		switch k {
		case roles.Fusion:
			return 10
		case roles.Caching:
			return 20
		}
		return 0
	})
	if m != 1 || ships[0].ModalRole() != roles.Caching {
		t.Fatal("clear advantage did not migrate")
	}
}

func TestHorizontalSkipsDeadShips(t *testing.T) {
	ships := fleet(t, 2)
	ships[1].Kill()
	e := New(DefaultConfig(), ships)
	m, _ := e.HorizontalPulse(func(i int, k roles.Kind) float64 {
		if k == roles.Fusion {
			return 100
		}
		return 0
	})
	if m != 1 {
		t.Fatalf("migrations = %d", m)
	}
}

func TestOutstandingNetworks(t *testing.T) {
	ships := fleet(t, 4)
	ships[0].SetModalRole(roles.Fusion)
	ships[1].SetModalRole(roles.Fusion)
	ships[2].SetModalRole(roles.Caching)
	ships[3].Kill()
	nets := OutstandingNetworks(ships)
	if len(nets[roles.Fusion]) != 2 || len(nets[roles.Caching]) != 1 {
		t.Fatalf("networks = %v", nets)
	}
	for _, idx := range nets {
		for _, i := range idx {
			if i == 3 {
				t.Fatal("dead ship in outstanding network")
			}
		}
	}
}

func TestRoleEntropy(t *testing.T) {
	ships := fleet(t, 4)
	// All same role: entropy 0.
	if h := RoleEntropy(ships); h != 0 {
		t.Fatalf("uniform fleet entropy = %v", h)
	}
	ships[0].SetModalRole(roles.Fusion)
	ships[1].SetModalRole(roles.Caching)
	ships[2].SetModalRole(roles.Boosting)
	if h := RoleEntropy(ships); h < 1.9 || h > 2.0 {
		t.Fatalf("diverse fleet entropy = %v, want ~2 bits", h)
	}
}
