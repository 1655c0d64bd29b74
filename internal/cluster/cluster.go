// Package cluster implements the Self-Reference Principle's community
// layer: ships display their architecture to each other, organize
// themselves into clusters based on feedback, and "are required to be
// fair and cooperative w.r.t. the information they display to the
// external world; otherwise they are excluded from the community."
//
// The community maintains a reputation per ship from gossip-round
// verification of self-descriptions, excludes persistent misreporters,
// forms clusters by structural congruence, and repairs ship death by
// genome replication (the autopoietic survival mechanism).
//
// # Scale discipline
//
// The community keeps an incrementally-maintained index of non-terminal
// members (exclusion and death are both terminal: an excluded ship never
// rejoins and a dead ship never re-births — Repair enrolls a fresh ship
// under a new id). Terminal members are compacted out of the index the
// next time it is refreshed, so steady-state rounds scan only the
// surviving fleet and never re-filter the full enrollment history. The
// per-round dense view of alive members is built into reusable scratch,
// making GossipRound and FormClusters allocation-free in
// steady state, and FormClusters is additionally gated on a fingerprint
// of the active membership and shapes: an unchanged fleet re-clusters in
// O(members) hashing instead of O(members × clusters) congruence tests.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"viator/internal/ployon"
	"viator/internal/ship"
	"viator/internal/shuttle"
	"viator/internal/sim"
)

// Member is one ship's standing in the community.
type Member struct {
	Ship       *ship.Ship
	Reputation float64
	Excluded   bool
	ClusterID  int // -1 when unassigned
}

// Config tunes community dynamics.
type Config struct {
	// InitialReputation is a new member's starting score.
	InitialReputation float64
	// TruthReward / Liepenalty adjust reputation per verified probe.
	TruthReward float64
	LiePenalty  float64
	// ExcludeBelow is the exclusion threshold.
	ExcludeBelow float64
	// ProbesPerRound is how many random peers each member verifies per
	// gossip round.
	ProbesPerRound int
	// ClusterCongruence is the minimum shape congruence for two ships to
	// share a cluster.
	ClusterCongruence float64
}

// DefaultConfig returns the parameters used by the SRP experiments.
func DefaultConfig() Config {
	return Config{
		InitialReputation: 1.0,
		TruthReward:       0.02,
		LiePenalty:        0.25,
		ExcludeBelow:      0.3,
		ProbesPerRound:    2,
		ClusterCongruence: 0.75,
	}
}

// Community is the self-organizing ship collective.
type Community struct {
	cfg     Config
	members map[ployon.ID]*Member
	order   []ployon.ID
	rng     *sim.RNG

	// idx holds the non-terminal members in enrollment order; terminal
	// members (excluded or dead) are compacted out on refresh and never
	// rescanned. Born-but-not-yet-alive members stay indexed (birth is
	// still ahead of them) and are merely skipped in the dense view.
	idx []*Member
	// actScratch is the reusable dense view of alive members built by
	// refreshActive for the duration of one call.
	actScratch []*Member
	// excluded accumulates excluded ids, kept sorted by insertion.
	excluded []ployon.ID

	// seedScratch reuses the cluster-seed slice across FormClusters calls.
	seedScratch []*Member
	// haveFingerprint/lastFingerprint/lastClusters gate FormClusters: when
	// the active membership and shapes hash to the same fingerprint as the
	// previous build, the greedy pass is skipped and the cached count
	// returned (ClusterIDs are already in place and unchanged).
	haveFingerprint bool
	lastFingerprint uint64
	lastClusters    int

	// Probes / Lies count verification outcomes; Repairs counts genome
	// resurrections; ClusterBuilds counts FormClusters passes that were
	// not absorbed by the fingerprint gate.
	Probes        uint64
	Lies          uint64
	Repairs       uint64
	ClusterBuilds uint64
}

// Community errors.
var (
	ErrUnknown = errors.New("cluster: unknown ship")
	ErrNoDonor = errors.New("cluster: no live congruent donor for repair")
)

// New creates an empty community.
func New(cfg Config, rng *sim.RNG) *Community {
	return &Community{cfg: cfg, members: make(map[ployon.ID]*Member), rng: rng}
}

// Add enrolls a ship with the initial reputation.
func (c *Community) Add(s *ship.Ship) {
	if _, dup := c.members[s.ID]; dup {
		return
	}
	m := &Member{Ship: s, Reputation: c.cfg.InitialReputation, ClusterID: -1}
	c.members[s.ID] = m
	c.order = append(c.order, s.ID)
	c.idx = append(c.idx, m)
}

// refreshActive compacts terminal members out of the incremental index
// and rebuilds the dense scratch view of alive members, both in
// enrollment order. The returned slice is owned by the community and
// valid until the next refresh.
//
//viator:noalloc
func (c *Community) refreshActive() []*Member {
	act := c.actScratch[:0]
	idx := c.idx[:0] // in-place filter: write index trails read index
	for _, m := range c.idx {
		if m.Excluded {
			continue
		}
		st := m.Ship.State()
		if st == ship.Dead {
			continue
		}
		idx = append(idx, m)
		if st == ship.Alive {
			act = append(act, m) //viator:alloc-ok amortized scratch growth; steady state reuses capacity
		}
	}
	c.idx = idx
	c.actScratch = act
	return act
}

// exclude marks a member terminal and records its id in the sorted
// exclusion log. The member stays visible to any dense view snapshotted
// before the exclusion (mid-round exclusions remain probe-able for the
// rest of that round) and is compacted out of the index on next refresh.
//
//viator:noalloc
func (c *Community) exclude(m *Member) {
	if m.Excluded {
		return // later probes of an already-excluded peer re-fire the branch
	}
	m.Excluded = true
	m.ClusterID = -1
	id := m.Ship.ID
	c.excluded = append(c.excluded, id) //viator:alloc-ok exclusions are rare and monotone; growth is amortized over the run
	// Sorted insert: exclusion order within a round must not show in the
	// reported list (see TestExcludedIDsOrderIndependent).
	s := c.excluded
	for j := len(s) - 1; j > 0 && s[j] < s[j-1]; j-- {
		s[j], s[j-1] = s[j-1], s[j]
	}
}

// ActiveIDs returns non-excluded alive ship ids in enrollment order.
func (c *Community) ActiveIDs() []ployon.ID {
	act := c.refreshActive()
	out := make([]ployon.ID, 0, len(act))
	for _, m := range act {
		out = append(out, m.Ship.ID)
	}
	return out
}

// ExcludedIDs returns the ids excluded so far, sorted. The result is a
// fresh copy; the community's own log is append-only.
func (c *Community) ExcludedIDs() []ployon.ID {
	if len(c.excluded) == 0 {
		return nil
	}
	out := make([]ployon.ID, len(c.excluded))
	copy(out, c.excluded)
	return out
}

// ExcludedCount returns how many ships have been excluded so far — the
// allocation-free form of len(ExcludedIDs()).
func (c *Community) ExcludedCount() int { return len(c.excluded) }

// GossipRound has every active member verify ProbesPerRound random peers:
// it asks for the peer's displayed modal role and checks it against the
// peer's observable behaviour. Misreports cost reputation; sustained
// lying leads to exclusion.
//
// Draw semantics are part of the determinism contract: each prober takes
// exactly ProbesPerRound draws from the community RNG against the dense
// active view snapshotted at round start. A draw that lands on the
// prober itself is discarded but still consumes both the draw and the
// probe budget — a self-draw is a skipped probe, not a redrawn one.
// "Fixing" this to redraw would shift the RNG stream and with it every
// downstream seed-derived result; TestGossipSelfProbeConsumesBudget pins
// the current semantics. Members excluded mid-round stay in the snapshot
// and remain probe-able until the round ends, exactly as before the
// index refactor.
//
//viator:noalloc
func (c *Community) GossipRound() {
	act := c.refreshActive()
	if len(act) < 2 {
		return
	}
	for _, prober := range act {
		for p := 0; p < c.cfg.ProbesPerRound; p++ {
			peer := act[c.rng.Intn(len(act))] //viator:alloc-ok panic path inside inlined Intn: empty act is guarded above, never taken in a valid run
			if peer == prober {
				continue
			}
			c.Probes++
			// The displayed modal role is Roles[0] of the ship's
			// self-description; comparing kinds directly avoids building
			// the genome that Describe() would allocate.
			truthful := peer.Ship.DisplayedModalRole() == peer.Ship.ModalRole()
			if truthful {
				peer.Reputation += c.cfg.TruthReward
				if peer.Reputation > 1 {
					peer.Reputation = 1
				}
			} else {
				c.Lies++
				peer.Reputation -= c.cfg.LiePenalty
				if peer.Reputation < c.cfg.ExcludeBelow {
					c.exclude(peer)
				}
			}
		}
	}
}

// refreshActiveFingerprint is refreshActive fused with the membership
// fingerprint: one walk compacts the index, builds the dense alive view
// and hashes each alive member's id and shape as it passes — each Ship
// is pointer-chased exactly once, which matters at fleet scale where
// this walk is the entire steady-state cost of FormClusters. The hash is
// a word-wise FNV-1a chain per member folded into an outer FNV-1a chain
// over the member order, so the serial-dependency chain is one multiply
// per member and consecutive members' local chains overlap in flight.
// Two fleets with equal fingerprint greedy-cluster identically; the gate
// trades a 2^-64 collision risk for skipping the O(members × clusters)
// congruence pass.
//
//viator:noalloc
func (c *Community) refreshActiveFingerprint() ([]*Member, uint64) {
	const (
		prime64  = 1099511628211
		offset64 = 14695981039346656037
	)
	act := c.actScratch[:0]
	idx := c.idx[:0] // in-place filter: write index trails read index
	h := uint64(offset64)
	for _, m := range c.idx {
		if m.Excluded {
			continue
		}
		sp := m.Ship
		st := sp.State()
		if st == ship.Dead {
			continue
		}
		idx = append(idx, m)
		if st == ship.Alive {
			act = append(act, m) //viator:alloc-ok amortized scratch growth; steady state reuses capacity
			local := (offset64 ^ uint64(sp.ID)) * prime64
			for _, f := range sp.Shape {
				local = (local ^ math.Float64bits(f)) * prime64
			}
			h = (h ^ local) * prime64
		}
	}
	c.idx = idx
	c.actScratch = act
	h = (h ^ uint64(len(act))) * prime64
	return act, h
}

// FormClusters greedily groups active members by shape congruence: each
// ship joins the first cluster whose seed it is congruent with, otherwise
// it seeds a new cluster. It returns the number of clusters formed.
//
// The pass is gated on a fingerprint of the active membership and
// shapes: when nothing changed since the previous build, the per-member
// ClusterIDs are already correct and the cached cluster count is
// returned without re-running the greedy pass (ClusterBuilds counts the
// passes that actually ran).
//
//viator:noalloc
func (c *Community) FormClusters() int {
	act, fp := c.refreshActiveFingerprint()
	if c.haveFingerprint && fp == c.lastFingerprint {
		return c.lastClusters
	}
	c.ClusterBuilds++
	seeds := c.seedScratch[:0]
	for _, m := range act {
		m.ClusterID = -1
		placed := false
		for ci, seed := range seeds {
			if ployon.Congruence(m.Ship.Shape, seed.Ship.Shape) >= c.cfg.ClusterCongruence {
				m.ClusterID = ci
				placed = true
				break
			}
		}
		if !placed {
			m.ClusterID = len(seeds)
			seeds = append(seeds, m) //viator:alloc-ok amortized scratch growth; steady state reuses capacity
		}
	}
	c.seedScratch = seeds
	c.haveFingerprint = true
	c.lastFingerprint = fp
	c.lastClusters = len(seeds)
	return len(seeds)
}

// Repair resurrects a dead member by node genesis: a live fair member of
// the same class emits its genome, a fresh ship is born with the dead
// ship's identity slot (new id), and the genome is docked into it. This
// is the "reproducing its own elements ... even in spite of such
// interventions" property of the autopoietic system.
func (c *Community) Repair(deadID ployon.ID, newID ployon.ID, now float64) (*ship.Ship, error) {
	dead, ok := c.members[deadID]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknown, deadID)
	}
	if dead.Ship.State() != ship.Dead {
		return nil, fmt.Errorf("cluster: ship %d is not dead", deadID)
	}
	// Find a live, fair, same-class donor in enrollment order.
	var donor *Member
	for _, m := range c.refreshActive() {
		if m.Ship.Fair() && m.Ship.Class == dead.Ship.Class {
			donor = m
			break
		}
	}
	if donor == nil {
		return nil, ErrNoDonor
	}
	genome, err := donor.Ship.EmitGenome(now)
	if err != nil {
		return nil, err
	}
	cfg := dead.Ship.Config()
	cfg.ID = newID
	reborn := ship.New(cfg)
	if err := reborn.Birth(); err != nil {
		return nil, err
	}
	sh := shuttle.New(newID<<8, shuttle.Gene, int32(donor.Ship.ID), int32(newID), cfg.Class)
	sh.Shape = reborn.Shape // genesis shuttles are born congruent
	sh.Genome = genome.Encode()
	if _, err := reborn.Dock(sh, now); err != nil {
		return nil, err
	}
	c.Add(reborn)
	c.Repairs++
	return reborn, nil
}
