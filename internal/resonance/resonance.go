// Package resonance implements network resonance, "the leading WLI
// characteristic": net functions that emerge on their own by getting in
// touch with other net functions, facts, user interactions or other
// transmitted information (Definition 3.4).
//
// The engine observes the alive fact sets of ships over time, tracks fact
// co-occurrence, and when two facts resonate — co-occur far more often
// than independence predicts — it synthesizes a new net function bound to
// that fact constellation, without anyone having injected it. Emerged
// constellations are the adaptive meta-policy material the paper calls a
// "decision base or development program" for the network.
//
// # Scale discipline
//
// Facts are interned to dense int32 ids on first sight, so the O(f²)
// observation hot path counts pairs in a flat triangular array (two
// string hashes per pair under the old pair-of-FactID map key; a single
// slice increment now) and the per-fact counters are plain slice
// indexing. The triangle grows one row per interned fact — quadratic in
// *distinct* facts, which the experiments keep small (role-demand and
// scenario facts), not in observations. Emergence scanning is driven by
// a candidate frontier — the pairs that crossed MinSupport since they
// were first counted — so Emerge revisits only pairs that can still
// newly resonate, instead of re-scanning the whole pair table and
// re-deriving names for constellations that already emerged.
package resonance

import (
	"sort"

	"viator/internal/kq"
)

// Config tunes emergence sensitivity.
type Config struct {
	// MinSupport is the minimum number of co-observations before a pair
	// is considered at all.
	MinSupport int
	// MinCorrelation is the minimum P(a,b)/min(P(a),P(b)) for emergence
	// (confidence against the rarer fact).
	MinCorrelation float64
}

// DefaultConfig returns the emergence parameters of experiment E10.
func DefaultConfig() Config {
	return Config{MinSupport: 5, MinCorrelation: 0.8}
}

// Engine accumulates fact co-occurrence and emerges resonant functions.
type Engine struct {
	cfg Config

	observations int

	// Intern table: factIdx maps a fact to its dense id, factNames is the
	// inverse, factCount counts observations per interned fact.
	factIdx   map[kq.FactID]int32
	factNames []kq.FactID
	factCount []int

	// pairCnt counts co-observations in a flat lower-triangular layout:
	// pair (lo, hi) with lo ≤ hi lives at hi·(hi+1)/2 + lo, so interning
	// a fact appends one row and never relocates existing counts.
	// candidates is the emergence frontier: every pair is appended
	// exactly once, when its count crosses the support threshold, and
	// leaves the frontier when it emerges.
	pairCnt    []int
	candidates []uint64

	emerged map[string]kq.NetFunction

	idScratch    []int32
	factsScratch []kq.FactID
}

// New creates an engine.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:     cfg,
		factIdx: make(map[kq.FactID]int32),
		emerged: make(map[string]kq.NetFunction),
	}
}

// Observations returns how many snapshots have been folded in.
func (e *Engine) Observations() int { return e.observations }

// intern returns the dense id for a fact, assigning the next one on
// first sight.
func (e *Engine) intern(f kq.FactID) int32 {
	if id, ok := e.factIdx[f]; ok {
		return id
	}
	id := int32(len(e.factNames))
	e.factIdx[f] = id
	e.factNames = append(e.factNames, f)
	e.factCount = append(e.factCount, 0)
	for i := int32(0); i <= id; i++ { // fact id's triangle row
		e.pairCnt = append(e.pairCnt, 0)
	}
	return id
}

// pairIdx returns the triangular index of the (a, b) pair.
func pairIdx(a, b int32) int32 {
	if b < a {
		a, b = b, a
	}
	return b*(b+1)/2 + a
}

// packPair builds the canonical uint64 pair key from two interned ids.
func packPair(a, b int32) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// supportThreshold is the count at which a pair enters the candidate
// frontier: MinSupport, but at least 1 so that a non-positive MinSupport
// still admits every observed pair (the old full-scan behaviour).
func (e *Engine) supportThreshold() int {
	if e.cfg.MinSupport < 1 {
		return 1
	}
	return e.cfg.MinSupport
}

// Observe folds in one ship's alive fact set at time now.
func (e *Engine) Observe(kb *kq.Store, now float64) {
	e.factsScratch = kb.FactsInto(e.factsScratch, now)
	e.ObserveFacts(e.factsScratch)
}

// ObserveFacts folds in one alive-fact snapshot directly. In steady
// state (all facts interned, all pairs already counted) the fold is
// allocation-free.
//
//viator:noalloc
func (e *Engine) ObserveFacts(facts []kq.FactID) {
	e.observations++
	ids := e.idScratch[:0]
	for _, f := range facts {
		ids = append(ids, e.intern(f)) //viator:alloc-ok amortized scratch growth; steady state reuses capacity
	}
	e.idScratch = ids
	for _, id := range ids {
		e.factCount[id]++
	}
	t := e.supportThreshold()
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			p := pairIdx(ids[i], ids[j])
			cnt := e.pairCnt[p] + 1
			e.pairCnt[p] = cnt
			if cnt == t {
				// Counts are monotone, so each pair crosses the
				// threshold exactly once and the frontier stays
				// duplicate-free.
				e.candidates = append(e.candidates, packPair(ids[i], ids[j])) //viator:alloc-ok frontier growth is bounded by distinct resonant pairs
			}
		}
	}
}

// Correlation returns the resonance score of a fact pair:
// count(a,b) / min(count(a), count(b)); 0 when either is unseen.
func (e *Engine) Correlation(a, b kq.FactID) float64 {
	ia, oka := e.factIdx[a]
	ib, okb := e.factIdx[b]
	if !oka || !okb {
		return 0
	}
	return e.correlationIdx(ia, ib)
}

// correlationIdx is Correlation over interned ids (both must be valid).
func (e *Engine) correlationIdx(a, b int32) float64 {
	ca, cb := e.factCount[a], e.factCount[b]
	if ca == 0 || cb == 0 {
		return 0
	}
	minC := ca
	if cb < minC {
		minC = cb
	}
	return float64(e.pairCnt[pairIdx(a, b)]) / float64(minC)
}

// resonantName builds the deterministic name of an emerged function; a
// and b must already be in canonical (string) order.
func resonantName(a, b kq.FactID) string {
	return "resonant:" + string(a) + "+" + string(b)
}

// Emerge scans the candidate frontier and synthesizes new net functions
// for every resonant pair not yet emerged. Returned functions are sorted
// by name; repeated calls only return new emergences (the network keeps
// what it has learned). Candidates that meet support but not yet the
// correlation bar stay in the frontier — their correlation can still
// rise with later observations.
func (e *Engine) Emerge() []kq.NetFunction {
	var out []kq.NetFunction
	keep := e.candidates[:0] // order-preserving in-place compaction
	for _, k := range e.candidates {
		lo, hi := int32(k>>32), int32(uint32(k))
		if e.correlationIdx(lo, hi) < e.cfg.MinCorrelation {
			keep = append(keep, k)
			continue
		}
		// The function name orders the two facts by string comparison —
		// the intern ids order by first sight, which differs.
		a, b := e.factNames[lo], e.factNames[hi]
		if b < a {
			a, b = b, a
		}
		name := resonantName(a, b)
		if _, done := e.emerged[name]; done {
			continue
		}
		nf := kq.NetFunction{Name: name, Requires: []kq.FactID{a, b}}
		e.emerged[name] = nf
		out = append(out, nf)
	}
	e.candidates = keep
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
