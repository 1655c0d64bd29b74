package viator

import (
	"viator/internal/mobility"
	"viator/internal/topo"
)

// Ship mobility: "the main distinction from other AN approaches
// elsewhere is that the active nodes (ships) are considered to be
// mobile". EnableMobility attaches a random-waypoint model to the fleet:
// node positions advance continuously, radio-range connectivity is
// refreshed periodically, and the adaptive router re-pulses after every
// refresh so shuttles keep flowing over the changing topology.
//
// The refresh is incremental and allocation-free in steady state: the
// model steps into a caller-owned position buffer, a spatial hash
// enumerates candidate pairs in O(n·k), and the new neighbor sets are
// diffed against the previous refresh's, so only links whose endpoints
// actually crossed radio range are toggled. A refresh where nothing
// moved leaves topo.Graph.Version untouched, which lets the router's
// pulse gate skip recomputation entirely.

// Mobility drives a Network's physical layer.
type Mobility struct {
	net    *Network
	model  *mobility.RandomWaypoint
	radius float64

	scratch mobility.ConnScratch
	pos     []topo.Point

	// Refreshes counts connectivity rebuilds; Partitions counts refreshes
	// that left the fleet disconnected.
	Refreshes  uint64
	Partitions uint64
	// LinksUp is the directed up-link count after the latest refresh —
	// the connectivity refresh reports it, so nothing rescans the link
	// table to learn it.
	LinksUp int
}

// EnableMobility arms continuous ship movement. The model must cover
// len(Ships) nodes; radius is the radio range; period is the
// connectivity-refresh interval in virtual seconds.
func (n *Network) EnableMobility(model *mobility.RandomWaypoint, radius, period float64) *Mobility {
	if len(model.Positions()) != len(n.Ships) {
		panic("viator: mobility model size mismatch")
	}
	m := &Mobility{net: n, model: model, radius: radius}
	last := n.Now()
	n.K.Every(period, func() {
		dt := n.Now() - last
		last = n.Now()
		m.pos = model.StepInto(m.pos, dt)
		m.LinksUp = m.scratch.RefreshInto(n.G, m.pos, radius)
		m.Refreshes++
		if !n.G.Connected() {
			m.Partitions++
		}
		// Re-route: the adaptive tables are stale.
		n.adaptRouter()
		n.Trace.Add(n.Now(), "mobility", "connectivity refresh: %d links up", m.LinksUp)
	})
	return m
}

// RefreshNow synthesizes connectivity from the model's current positions
// immediately, outside the periodic schedule — the arming step scenarios
// run before traffic starts. It updates LinksUp but counts neither a
// refresh nor a partition probe, and leaves re-routing to the caller.
func (m *Mobility) RefreshNow() int {
	m.pos = append(m.pos[:0], m.model.Positions()...)
	m.LinksUp = m.scratch.RefreshInto(m.net.G, m.pos, m.radius)
	return m.LinksUp
}
