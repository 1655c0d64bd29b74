package viator

import (
	"math"

	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/ship"
	"viator/internal/stats"
)

// E6 reproduces the paper's generation ladder (section B): under a demand
// shift plus node churn, each Wandering Network generation adapts
// strictly better than the one below it.
//
// Scenario: a fleet of 24 ships starts provisioned with the Transcoding
// service. At t=100 s the demanded service shifts to Caching and 25% of
// the fleet dies. Capability per rung:
//
//	1G — execution-environment programmability only: node roles are
//	     fixed at fabrication; no adaptation, no repair.
//	2G — NodeOS programmability: a controller re-provisions ships one by
//	     one (serialized push, 0.5 s per ship); no repair.
//	3G — adds hardware reconfiguration: re-provisioned ships serve at
//	     hardware speed (3× per-ship throughput); no repair.
//	4G — adds self-distribution and replication: role deployment spreads
//	     epidemically (jet waves, ~4 ships per 0.5 s step) and dead ships
//	     are repaired from live genomes.
type E6Result struct {
	Rows []E6Row
}

// E6Row is one generation's outcome.
type E6Row struct {
	Generation string
	// AdaptTime is seconds from the shift until ≥80% of the alive fleet
	// serves the new demand (+Inf if never).
	AdaptTime float64
	// FinalCapacity is the serving-ship count at the end (after churn).
	FinalCapacity int
	// Repaired counts resurrected ships.
	Repaired int
	// Throughput is the fleet's delivered service rate at the end, in
	// chunks/s (hardware-assisted ships serve 3×).
	Throughput float64
}

// e6 fleet parameters.
const (
	e6Fleet      = 24
	e6Kill       = 6 // ships dying at the shift
	e6SoftRate   = 100.0
	e6HwRate     = 300.0
	e6StepSec    = 0.5
	e6AdaptLevel = 0.8
)

// runLadderGen simulates one rung in discrete 0.5 s steps. It uses real
// ships (role switches go through ship.SetModalRole with its generation
// gate) and the real community repair path for 4G.
func runLadderGen(gen int, seed uint64) E6Row {
	cfg := DefaultConfig(e6Fleet, seed)
	cfg.Generation = gen
	n := NewNetwork(cfg)
	name := map[int]string{1: "1G (EE only)", 2: "2G (+NodeOS)", 3: "3G (+hardware)", 4: "4G (+self-distribution)"}[gen]

	// Provision phase: everyone serves Transcoding. 1G ships are
	// fixed-function, so provisioning happens "at fabrication": emulate
	// by constructing generation-2 switches... they cannot switch, so for
	// the experiment the factory role IS transcoding. We model this by
	// switching while pretending fabrication: allowed for all rungs.
	for _, s := range n.Ships {
		if gen >= 2 {
			s.SetModalRole(roles.Transcoding)
		} else {
			// Factory-fixed role: install via a temporary capability
			// bypass — rebuild the ship at generation 2, switch, then
			// treat it as fixed (we simply never switch it again).
			forceRole(s, roles.Transcoding, n)
		}
	}

	// Shift at t=100: kill e6Kill ships, demand becomes Caching.
	rng := n.K.Rand.Split()
	perm := rng.Perm(e6Fleet)
	dead := perm[:e6Kill]
	for _, i := range dead {
		n.KillShip(i)
	}

	serving := func() (count, hwCount, alive int) {
		for _, s := range n.Ships {
			if s.State() != ship.Alive {
				continue
			}
			alive++
			if s.ModalRole() == roles.Caching {
				count++
				if s.Config().Generation >= 3 {
					hwCount++
				}
			}
		}
		return
	}

	adaptTime := math.Inf(1)
	repaired := 0
	nextRepairID := ployon.ID(1000)
	// The controller push pointer for 2G/3G.
	pushPtr := 0
	order := rng.Perm(e6Fleet)

	for step := 0; step < 240; step++ {
		now := 100 + float64(step)*e6StepSec
		switch gen {
		case 1:
			// No mechanism: nothing happens.
		case 2, 3:
			// Controller pushes one ship per step.
			for pushPtr < len(order) {
				s := n.Ships[order[pushPtr]]
				pushPtr++
				if s.State() == ship.Alive {
					s.SetModalRole(roles.Caching)
					break
				}
			}
		case 4:
			// Epidemic: every serving ship converts up to 3 peers per
			// step (jet wave abstraction over the E1-verified mechanism),
			// and one dead ship is repaired per step.
			cnt, _, _ := serving()
			if cnt == 0 {
				n.Ships[firstAlive(n)].SetModalRole(roles.Caching)
			}
			converts := cnt * 3
			for _, s := range n.Ships {
				if converts == 0 {
					break
				}
				if s.State() == ship.Alive && s.ModalRole() != roles.Caching {
					s.SetModalRole(roles.Caching)
					converts--
				}
			}
			for _, di := range dead {
				if n.Ships[di].State() == ship.Dead {
					if reborn, err := n.Community.Repair(ployon.ID(di), nextRepairID, now); err == nil {
						nextRepairID++
						repaired++
						reborn.SetModalRole(roles.Caching)
						n.Ships[di] = reborn // take over the slot
					}
					break // one repair per step
				}
			}
		}
		cnt, _, alive := serving()
		if math.IsInf(adaptTime, 1) && alive > 0 && float64(cnt) >= e6AdaptLevel*float64(alive) {
			adaptTime = float64(step+1) * e6StepSec
		}
	}

	cnt, hwCnt, _ := serving()
	throughput := float64(cnt-hwCnt)*e6SoftRate + float64(hwCnt)*e6HwRate
	return E6Row{
		Generation: name, AdaptTime: adaptTime,
		FinalCapacity: cnt, Repaired: repaired, Throughput: throughput,
	}
}

// forceRole sets a factory role on a 1G ship by temporary reconstruction.
func forceRole(s *ship.Ship, k roles.Kind, n *Network) {
	cfg := s.Config()
	cfg.Generation = 2
	tmp := ship.New(cfg)
	tmp.Birth()
	tmp.SetModalRole(k)
	// Swap the provisioned ship into the fleet slot. The rest of the run
	// never switches a 1G ship again, honoring the fixed-function
	// capability by protocol (SetModalRole would refuse on a real gen-1
	// ship; the factory role is burned in before deployment).
	for i, old := range n.Ships {
		if old == s {
			n.KillShip(i)
			n.Ships[i] = tmp
			return
		}
	}
}

func firstAlive(n *Network) int {
	for i, s := range n.Ships {
		if s.State() == ship.Alive {
			return i
		}
	}
	return 0
}

// RunE6 executes the ladder.
func RunE6(seed uint64) *E6Result {
	res := &E6Result{}
	for gen := 1; gen <= 4; gen++ {
		res.Rows = append(res.Rows, runLadderGen(gen, seed))
	}
	return res
}

// Table renders the E6 result.
func (r *E6Result) Table() *stats.Table {
	t := stats.NewTable("E6 — generation ladder under demand shift + 25% churn",
		"generation", "adapt time (s)", "final capacity", "repaired", "throughput (chunks/s)")
	for _, row := range r.Rows {
		at := "never"
		if !math.IsInf(row.AdaptTime, 1) {
			at = trimFloat(row.AdaptTime)
		}
		t.AddRow(row.Generation, at, row.FinalCapacity, row.Repaired, row.Throughput)
	}
	return t
}
