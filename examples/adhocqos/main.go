// Ad-hoc QoS: the paper's outlook application. A fleet of mobile ships
// (random-waypoint mobility) maintains connectivity-driven routes with
// the on-demand ad-hoc protocol, while the formally verified routing
// spec is model-checked for the same protocol family. Demonstrates:
// mobility → link churn → rediscovery, and exhaustive verification.
package main

import (
	"fmt"

	"viator/internal/mobility"
	"viator/internal/routing"
	"viator/internal/sim"
	"viator/internal/spec"
	"viator/internal/topo"
)

func main() {
	const (
		ships  = 20
		arena  = 100.0
		radius = 35.0
	)
	rng := sim.NewRNG(7)
	model := mobility.NewRandomWaypoint(ships, arena, 2, 8, 1, rng)

	g := topo.New()
	g.AddNodes(ships)
	// The incremental refresh reports the up-link count, so the loop
	// never rescans the link table to observe connectivity.
	var conn mobility.ConnScratch
	conn.RefreshInto(g, model.Positions(), radius)
	router := routing.NewAODV(g)

	// Drive 60 seconds of mobility in 1 s steps; each step refreshes the
	// radio connectivity and routes a QoS flow 0 → 19.
	okSteps, partitioned, upSum := 0, 0, 0
	var pos []topo.Point
	for step := 0; step < 60; step++ {
		pos = model.StepInto(pos, 1)
		upSum += conn.RefreshInto(g, pos, radius)
		if path := router.Route(0, ships-1); path != nil {
			okSteps++
		} else {
			partitioned++
		}
	}
	fmt.Printf("mobile ad-hoc run: %d/60 steps routable, %d partitioned, mean %d links up\n",
		okSteps, partitioned, upSum/60)
	fmt.Printf("route discoveries: %d (control msgs %d), cache hits: %d\n",
		router.Discoveries, router.ControlMsgs, router.CacheHits)

	// The same protocol family, verified exhaustively (the paper's
	// "four pages of bug-free TLA+" artifact).
	p := spec.New(spec.DefaultConfig())
	safety := p.CheckSafety(0)
	live := p.CheckLiveness(0)
	fmt.Printf("model check: %v\n", safety)
	fmt.Printf("liveness (stable+connected ~> routes established): holds=%v over %d states\n",
		live.Holds, live.Checked)
	if safety.OK() && live.Holds {
		fmt.Println("adaptive routing protocol verified bug-free")
	}
}
