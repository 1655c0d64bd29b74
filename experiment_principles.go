package viator

import (
	"fmt"

	"viator/internal/cluster"
	"viator/internal/kq"
	"viator/internal/ployon"
	"viator/internal/resonance"
	"viator/internal/roles"
	"viator/internal/ship"
	"viator/internal/shuttle"
	"viator/internal/sim"
	"viator/internal/stats"
)

// ---------------------------------------------------------------------------
// E7 — Dualistic Congruence Principle. Shuttles of random classes arrive
// at ships of random classes. Without morphing, mismatched interfaces
// are rejected at the dock; with partial morphing most dock; with full
// morphing all dock — at a byte cost proportional to the structural
// distance bridged. Ship a-posteriori adaptation further raises repeat
// accept rates.
// ---------------------------------------------------------------------------

// E7Row is one morph-policy outcome.
type E7Row struct {
	Policy      string
	AcceptRate  float64
	MeanCongr   float64
	MorphBytes  int
	RepeatBoost float64 // accept-rate gain on a second identical wave
}

// E7Result carries all policies.
type E7Result struct{ Rows []E7Row }

// RunE7 executes the docking waves.
func RunE7(seed uint64) *E7Result {
	res := &E7Result{}
	for _, pol := range []struct {
		name  string
		rate  float64
		adapt float64
	}{
		{"no morphing", 0, 0},
		{"partial morphing (rate 0.5)", 0.5, 0},
		{"full morphing", 1, 0},
		{"full morphing + ship adaptation", 1, 0.3},
	} {
		rng := sim.NewRNG(seed)
		// A fleet of ships, one per class, with a strict dock.
		var ships []*ship.Ship
		for c := ployon.Class(0); c < ployon.NumClasses; c++ {
			cfg := ship.DefaultConfig(ployon.ID(c), c)
			cfg.CongruenceThreshold = 0.8
			cfg.AdaptRate = pol.adapt
			s := ship.New(cfg)
			s.Birth()
			ships = append(ships, s)
		}
		wave := func() (accepted int, congr float64, morphBytes int, total int) {
			for i := 0; i < 200; i++ {
				src := ployon.Class(rng.Intn(int(ployon.NumClasses)))
				dst := rng.Intn(len(ships))
				sh := shuttle.New(ployon.ID(1000+i), shuttle.Data, -1, int32(dst), src)
				if pol.rate > 0 {
					morphBytes += sh.Morph(ships[dst].Shape, pol.rate)
				}
				r, _ := ships[dst].Dock(sh, 0)
				congr += r.Congruence
				if r.Accepted {
					accepted++
				}
				total++
			}
			return
		}
		a1, c1, mb1, t1 := wave()
		a2, _, _, t2 := wave()
		res.Rows = append(res.Rows, E7Row{
			Policy:      pol.name,
			AcceptRate:  float64(a1) / float64(t1),
			MeanCongr:   c1 / float64(t1),
			MorphBytes:  mb1,
			RepeatBoost: float64(a2)/float64(t2) - float64(a1)/float64(t1),
		})
	}
	return res
}

// Table renders E7.
func (r *E7Result) Table() *stats.Table {
	t := stats.NewTable("E7 — Dualistic Congruence: morphing vs docking acceptance",
		"policy", "accept rate", "mean congruence", "morph bytes", "repeat-wave gain")
	for _, row := range r.Rows {
		t.AddRow(row.Policy, row.AcceptRate, row.MeanCongr, row.MorphBytes, row.RepeatBoost)
	}
	return t
}

// ---------------------------------------------------------------------------
// E8 — Self-Reference Principle. A community with a misreporting
// minority self-organizes: gossip verification excludes exactly the
// unfair ships, congruence clustering converges, and after a kill wave
// the community repairs itself by genome replication.
// ---------------------------------------------------------------------------

// E8Result carries the community trajectory.
type E8Result struct {
	Ships            int
	Unfair           int
	RoundsToExclude  int // gossip rounds until every unfair ship is out
	FalseExclusions  int
	Clusters         int
	Killed           int
	Repaired         int
	AliveAfterRepair int
}

// RunE8 executes the SRP scenario.
func RunE8(seed uint64) *E8Result {
	const nShips = 40
	const nUnfair = 4
	rng := sim.NewRNG(seed)
	com := cluster.New(cluster.DefaultConfig(), rng.Split())
	var ships []*ship.Ship
	for i := 0; i < nShips; i++ {
		cfg := ship.DefaultConfig(ployon.ID(i), ployon.Class(i%int(ployon.NumClasses)))
		cfg.Fair = i >= nUnfair
		s := ship.New(cfg)
		s.Birth()
		ships = append(ships, s)
		com.Add(s)
	}
	res := &E8Result{Ships: nShips, Unfair: nUnfair}
	// Gossip until all unfair ships are excluded (or give up).
	res.RoundsToExclude = -1
	for round := 1; round <= 200; round++ {
		com.GossipRound()
		if len(com.ExcludedIDs()) >= nUnfair && res.RoundsToExclude == -1 {
			res.RoundsToExclude = round
			break
		}
	}
	for _, id := range com.ExcludedIDs() {
		if ships[id].Fair() {
			res.FalseExclusions++
		}
	}
	res.Clusters = com.FormClusters()
	// Kill wave: 20% of the fleet dies.
	kill := rng.Perm(nShips)[:nShips/5]
	for _, i := range kill {
		ships[i].Kill()
		res.Killed++
	}
	// Repair from genomes.
	next := ployon.ID(1000)
	for _, i := range kill {
		if _, err := com.Repair(ployon.ID(i), next, 10); err == nil {
			res.Repaired++
			next++
		}
	}
	res.AliveAfterRepair = len(com.ActiveIDs())
	return res
}

// Table renders E8.
func (r *E8Result) Table() *stats.Table {
	t := stats.NewTable("E8 — Self-Reference: exclusion, clustering, autopoietic repair",
		"metric", "value")
	t.AddRow("ships", r.Ships)
	t.AddRow("unfair ships", r.Unfair)
	t.AddRow("gossip rounds to full exclusion", r.RoundsToExclude)
	t.AddRow("false exclusions", r.FalseExclusions)
	t.AddRow("congruence clusters", r.Clusters)
	t.AddRow("ships killed", r.Killed)
	t.AddRow("ships repaired from genomes", r.Repaired)
	t.AddRow("alive after repair", r.AliveAfterRepair)
	return t
}

// ---------------------------------------------------------------------------
// E10 — Pulsating Metamorphosis (Definition 3). Fact lifetimes follow
// the threshold law; quantum exchange prolongs function life; resonance
// makes new functions emerge uninjected from co-occurring facts.
// ---------------------------------------------------------------------------

// E10Row is one threshold's lifetime measurement.
type E10Row struct {
	Threshold         float64
	PredictedLifetime float64
	MeasuredLifetime  float64
	SurvivedNoExch    bool // function alive at t=60 without exchange
	SurvivedExch      bool // function alive at t=60 with quantum exchange
}

// E10Result also carries the emergence count.
type E10Result struct {
	Rows      []E10Row
	Emerged   int
	Observers int
}

// RunE10 executes the lifetime and resonance scenarios.
func RunE10(seed uint64) *E10Result {
	res := &E10Result{}
	const halfLife = 10.0
	const weight = 8.0
	for _, th := range []float64{0.25, 0.5, 1, 2, 4} {
		st := kq.NewStore(halfLife, th, 0)
		st.Observe("f", weight, 0)
		predicted := st.Lifetime("f", 0)
		// Measure by probing on a fine grid.
		measured := 0.0
		for t := 0.0; t < 200; t += 0.1 {
			if st.Alive("f", t) {
				measured = t
			}
		}
		// Function survival with and without exchange at t=30.
		nf := kq.NetFunction{Name: "svc", Requires: []kq.FactID{"f"}}
		noExch := kq.NewStore(halfLife, th, 0)
		noExch.Observe("f", weight, 0)
		withExch := kq.NewStore(halfLife, th, 0)
		withExch.Observe("f", weight, 0)
		q := kq.Quantum{Function: nf, Facts: []kq.FactRecord{{ID: "f", Weight: weight}}}
		q.Absorb(withExch, 30)
		res.Rows = append(res.Rows, E10Row{
			Threshold:         th,
			PredictedLifetime: predicted,
			MeasuredLifetime:  measured,
			SurvivedNoExch:    nf.Alive(noExch, 60),
			SurvivedExch:      nf.Alive(withExch, 60),
		})
	}
	// Resonance: two facts co-occur across many ships' knowledge bases;
	// a function emerges that nobody injected.
	eng := resonance.New(resonance.DefaultConfig())
	rng := sim.NewRNG(seed)
	for obs := 0; obs < 50; obs++ {
		st := kq.NewStore(halfLife, 0.5, 0)
		st.Observe("video-load", 5, 0)
		st.Observe("cpu-hot", 5, 0)
		if rng.Bool(0.5) {
			st.Observe(kq.FactID(fmt.Sprintf("noise-%d", obs%7)), 5, 0)
		}
		eng.Observe(st, 0)
	}
	res.Emerged = len(eng.Emerge())
	res.Observers = eng.Observations()
	return res
}

// Table renders E10.
func (r *E10Result) Table() *stats.Table {
	t := stats.NewTable("E10 — Pulsating Metamorphosis: fact lifetime law, exchange, resonance",
		"threshold", "predicted life (s)", "measured life (s)", "func alive @60s (no exch)", "func alive @60s (exch)")
	for _, row := range r.Rows {
		t.AddRow(row.Threshold, row.PredictedLifetime, row.MeasuredLifetime, row.SurvivedNoExch, row.SurvivedExch)
	}
	t.AddRow("resonance", fmt.Sprintf("%d functions emerged from %d observations", r.Emerged, r.Observers), "", "", "")
	return t
}

// ---------------------------------------------------------------------------
// E12 — section D role classes: every role's defining traffic effect.
// ---------------------------------------------------------------------------

// E12Row is one role's measured effect.
type E12Row struct {
	Role   roles.Kind
	Level  int
	Ratio  float64
	Effect string
}

// E12Result carries all role measurements.
type E12Result struct{ Rows []E12Row }

// RunE12 feeds a reference stream through every role processor.
func RunE12(seed uint64) *E12Result {
	res := &E12Result{}
	for _, info := range roles.Catalog() {
		p := roles.NewProcessor(info.Kind)
		for i := 0; i < 64; i++ {
			c := roles.Chunk{Stream: "s", Seq: i, Bytes: 1000, Key: fmt.Sprintf("k%d", i%8)}
			if i%5 == 0 {
				c.Meta = "drop" // filter fodder
			}
			p.Process(c)
		}
		p.Flush()
		effect := ""
		switch pr := p.(type) {
		case *roles.Cache:
			// Replay requests to measure the hit rate.
			for i := 0; i < 16; i++ {
				pr.Process(roles.Chunk{Key: fmt.Sprintf("k%d", i%8), Meta: "request"})
			}
			effect = fmt.Sprintf("hit rate %.2f", pr.HitRate())
		case *roles.Booster:
			effect = fmt.Sprintf("recoverable loss %.2f", pr.Recoverable())
		case *roles.Filter:
			effect = fmt.Sprintf("dropped %d", pr.Dropped)
		case *roles.Security:
			effect = fmt.Sprintf("rejected %d", pr.Rejected)
		}
		res.Rows = append(res.Rows, E12Row{
			Role: info.Kind, Level: info.Level,
			Ratio: p.Stats().Ratio(), Effect: effect,
		})
	}
	return res
}

// Table renders E12.
func (r *E12Result) Table() *stats.Table {
	t := stats.NewTable("E12 — role classes: delivered/received byte ratios",
		"role", "level", "bytes out/in", "extra effect")
	for _, row := range r.Rows {
		t.AddRow(row.Role.String(), row.Level, row.Ratio, row.Effect)
	}
	return t
}
