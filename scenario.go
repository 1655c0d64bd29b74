package viator

import (
	"embed"
	"fmt"
	"math"
	"runtime"
	"strings"

	"viator/internal/mobility"
	"viator/internal/netsim"
	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/scenario"
	"viator/internal/ship"
	"viator/internal/shuttle"
	"viator/internal/sim"
	"viator/internal/stats"
	"viator/internal/telemetry"
	"viator/internal/topo"
	"viator/internal/workload"
)

// The district compiler: lowers a validated internal/scenario spec onto
// the Network machinery. A spec compiles to D = max(1, shards) spatial
// districts, each a full Network of ships/D ships in its own arena, all
// armed by one code path (arena, routing pulses, healer, telemetry, jets,
// run stream, churn, traffic, cross-traffic, faults). Districts are
// radio-isolated from each other and connected only by trunks — long-haul
// links whose propagation delay is the sharded executor's lookahead.
// Every district snapshots itself on its own kernel at each checkpoint;
// the snapshots merge into the result rows exactly (counter sums, role
// entropy over the summed role counts, merged latency histograms for the
// quantile columns), and the assertions evaluate once over the merged
// view.
//
// Every run executes on a sim.ShardGroup. A spec with D > 1 districts
// runs them on K shard kernels (shardrun.go; K divides D, default K = D,
// overridable with SetShardOverride / viatorbench -shards) seeded from
// the run seed's splitmix stream, each kernel advancing its districts
// under the windowed conservative protocol. Cross-district packets leave
// through a trunk on the source kernel and arrive as mailbox events on
// the destination kernel, committed in (time, seq, shard) order. Traffic
// generators, churn and jets operate per district on local ships (a fixed
// onoff/cbr pair must be same-district, enforced by spec validation);
// cross_traffic is the one inter-district generator.
//
// An unsharded spec is one district on a one-shard group whose kernel is
// seeded with the run seed itself and whose lookahead is infinite: with
// no trunk it can hold no mail, so it steps straight to any time exactly
// as a plain Kernel.Run would. The stress scenarios S1 and S2 are such
// specs (scenarios/s1.json, s2.json, embedded below) and reproduce the
// retired hand-written RunS1/RunS2 byte-for-byte: the arming sequence
// performs the same kernel registrations and RNG splits in the same order
// — mobility model split first, then one shared churn+traffic stream
// split after the jets — so the goldens pinned in testdata/scenario are
// unchanged.
//
// Execution is start → advance → finish, and Scenario.Run is a RunHandle
// (live.go) driven straight to the horizon — the live server drives the
// same handle with observation pauses between steps, so an observed run
// cannot diverge from a batch run by construction. One advance loop,
// ShardGroup.StepTo, serves every run; only the single-recorder exports
// (Dump, RunHandle.Telemetry/Trace) depend on the district count and
// exist only for one-district runs.
//
// Determinism contract: a (spec, seed) pair — plus K for sharded specs —
// fully determines the run. Compilation is pure; everything seed-dependent
// happens on the per-run kernel RNGs, and replicate fan-out reuses the
// registry's seed-stream discipline (replicateSeed + sim.RunParallel), so
// tables, telemetry and assertion verdicts are byte-identical for any
// worker count. Across different K the model is the same but not
// bit-identical: districts sharing a kernel interleave their draws from
// that kernel's RNG (statistically equivalent trajectories).

// Scenario is one compiled spec, ready to run for any seed. Compiled
// state is read-only after CompileScenario, so one Scenario may run many
// replicates concurrently.
type Scenario struct {
	// Spec is the validated source spec (not copied; treat as immutable).
	Spec *scenario.Spec

	jets []scenarioJet
	slo  telemetry.SLO
	// zipf holds one precomputed sampler per hotspot traffic entry (nil
	// elsewhere) over one district's fleet: the harmonic CDF depends only
	// on the spec, so it is built once here, never per replicate.
	zipf []*workload.Zipf
}

type scenarioJet struct {
	at     int
	kind   roles.Kind
	fanout int
}

// CompileScenario validates sp and resolves it into a runnable Scenario.
func CompileScenario(sp *scenario.Spec) (*Scenario, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sc := &Scenario{
		Spec: sp,
		slo: telemetry.SLO{
			Quantile:         sp.SLO.Quantile,
			MaxLatency:       sp.SLO.MaxLatency,
			MinDeliveryRatio: sp.SLO.MinDeliveryRatio,
		},
	}
	for _, j := range sp.Jets {
		k, ok := roles.KindByName(j.Role)
		if !ok {
			// Unreachable after Validate; kept as a belt against drift.
			return nil, fmt.Errorf("viator: unknown role %q", j.Role)
		}
		sc.jets = append(sc.jets, scenarioJet{at: j.At, kind: k, fanout: j.Fanout})
	}
	sc.zipf = make([]*workload.Zipf, len(sp.Traffic))
	for i := range sp.Traffic {
		if sp.Traffic[i].Kind == scenario.TrafficHotspot {
			sc.zipf[i] = workload.NewZipf(sp.Ships/max(1, sp.Shards), sp.Traffic[i].Exponent)
		}
	}
	return sc, nil
}

// ParseScenario parses, validates and compiles a spec in one step — the
// entry point for file-loaded scenarios (viatorbench -scenario).
func ParseScenario(data []byte) (*Scenario, error) {
	sp, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	return CompileScenario(sp)
}

// ScenarioRow is one checkpoint of a scenario run (the S1/S2 row shape).
type ScenarioRow struct {
	T          float64
	AliveFrac  float64 // fleet slots currently alive
	LinksUp    int     // directed radio links up at the checkpoint
	Delivered  uint64  // shuttles docked so far
	Lost       uint64  // shuttles lost so far (no route, drop, dead dock)
	Repairs    uint64  // self-healing resurrections so far
	Partitions uint64  // connectivity refreshes that left the fleet split
	Entropy    float64 // role differentiation across the alive fleet

	// QoS columns from the telemetry scorecard: cumulative default-flow
	// latency quantiles (milliseconds) and the SLO verdict (1 pass,
	// 0 fail) at the checkpoint.
	P50ms, P95ms, P99ms float64
	SLOOK               float64
}

// ScenarioResult is one run's trajectory, telemetry and verdicts.
type ScenarioResult struct {
	Title string
	Rows  []ScenarioRow
	// Dump is the run's exportable telemetry (recorder series, latency
	// and queue-depth histograms, QoS scorecards); nil for runs of more
	// than one district.
	Dump *telemetry.Dump
	// Verdicts are the spec's assertions evaluated against the finished
	// run, in spec order (flow assertions first, then scenario-level).
	Verdicts []scenario.Verdict
}

// Pass reports whether every assertion held.
func (r *ScenarioResult) Pass() bool { return scenario.AllPass(r.Verdicts) }

// Table renders the trajectory in the S1/S2 column layout.
func (r *ScenarioResult) Table() *stats.Table {
	t := stats.NewTable(r.Title,
		"t (s)", "alive frac", "links up", "delivered", "lost", "repairs", "partitions", "role entropy",
		"p50 (ms)", "p95 (ms)", "p99 (ms)", "SLO ok")
	for _, row := range r.Rows {
		t.AddRow(row.T, row.AliveFrac, row.LinksUp,
			float64(row.Delivered), float64(row.Lost),
			float64(row.Repairs), float64(row.Partitions), row.Entropy,
			row.P50ms, row.P95ms, row.P99ms, row.SLOOK)
	}
	return t
}

// Run executes the scenario for one seed: a RunHandle driven straight to
// the horizon, so batch and live runs share one advance path.
func (sc *Scenario) Run(seed uint64) *ScenarioResult { return StartScenario(sc, seed).Finish() }

// fleetRun is one armed run: its districts and the shard group
// executing them.
type fleetRun struct {
	sc  *Scenario
	ds  []*district
	per int // ships per district
	// group runs the districts, dpk per shard kernel.
	group *sim.ShardGroup
	dpk   int
}

// district is one district's armed machinery.
type district struct {
	id  int
	n   *Network
	tel *Telemetry
	// mob/model are set for mobile arenas; pos for static ones.
	mob    *Mobility
	model  *mobility.RandomWaypoint
	pos    []topo.Point
	healer *Healer
	// rng is the shared churn+traffic stream (split after the jets,
	// matching the retired hand-written scenarios).
	rng *sim.RNG
	// trunks[dd] carries packets to district dd (nil for dd == id).
	trunks []*netsim.Trunk
	checks []rowCheck
}

// rowCheck is one district's snapshot at a checkpoint, captured on the
// district's own kernel and merged into the result row after the run.
type rowCheck struct {
	alive, links                         int
	delivered, lost, repairs, partitions uint64
	roleCounts                           []int
	sent, deliv                          uint64 // default-flow scorecard
	lat                                  *telemetry.Hist
}

// inWindow gates an emission to the [start, stop) window; stop 0 means
// forever. Generators outside their window skip the slot without drawing
// from the RNG, so the gate itself is part of the deterministic replay.
func inWindow(now, start, stop float64) bool {
	return now >= start && (stop == 0 || now < stop)
}

// positions returns the fleet positions the traffic/fault geometry sees.
func (d *district) positions() []topo.Point {
	if d.model != nil {
		return d.model.Positions()
	}
	return d.pos
}

// linksUp counts directed up links. Mobile arenas read the refresher's
// count; static ones scan the (small, fixed) link table.
func (d *district) linksUp() int {
	if d.mob != nil {
		return d.mob.LinksUp
	}
	up := 0
	for i := 0; i < d.n.G.Links(); i++ {
		if d.n.G.Link(i).Up {
			up++
		}
	}
	return up
}

// partitions counts refreshes that left the district split (mobile only;
// static arenas have no periodic refresh to probe).
func (d *district) partitions() uint64 {
	if d.mob != nil {
		return d.mob.Partitions
	}
	return 0
}

// repairs reads the healer counter, 0 when healing is disarmed.
func (d *district) repairs() uint64 {
	if d.healer != nil {
		return d.healer.Repairs
	}
	return 0
}

// start arms the scenario for one seed on k shard kernels (a divisor of
// the district count) and returns without running: every district in
// index order (see arm), then the faults, the trunk mesh and the
// checkpoint schedule. Same-time events fire in scheduling order, so the
// rows go last, in row-major district order.
func (sc *Scenario) start(seed uint64, k int) *fleetRun {
	sp := sc.Spec
	D := max(1, sp.Shards)
	r := &fleetRun{sc: sc, ds: make([]*district, D), per: sp.Ships / D, dpk: D / k}
	seeds, lookahead := []uint64{seed}, math.Inf(1)
	if D > 1 {
		seeds, lookahead = sim.ShardSeeds(k, seed), sp.Trunk.Delay
	}
	r.group = sim.NewShardGroup(seeds, lookahead)
	for i := range r.ds {
		r.ds[i] = r.arm(i, seed)
	}
	// Fault coordinates address the whole fleet; validation admits faults
	// only for one-district specs.
	for _, f := range sp.Faults {
		r.ds[0].n.K.At(f.At, func() { r.ds[0].applyFault(f) })
	}
	r.armTrunks()
	for row, t := 0, sp.RowEvery; t <= sp.Horizon; row, t = row+1, t+sp.RowEvery {
		for _, d := range r.ds {
			d.n.K.At(t, func() { d.capture(row) })
		}
	}
	return r
}

// arm builds district id on its shard's kernel in the fixed order the
// golden byte-identity tests pin: arena, routing pulses, healer,
// telemetry, jets, run stream, churn, traffic, cross-traffic.
func (r *fleetRun) arm(id int, seed uint64) *district {
	sc, sp, per := r.sc, r.sc.Spec, r.per
	cfg := DefaultConfig(per, seed)
	cfg.UnfairFraction = sp.UnfairFraction
	// Radio-range topology from the arena's own positions; the default
	// Waxman generator would be far denser than a city radio mesh.
	g := topo.New()
	g.AddNodes(per)
	cfg.Graph = g
	base := id * per // classes cycle over global ship indices
	cfg.ClassOf = func(i int) ployon.Class { return ployon.Class((base + i) % int(ployon.NumClasses)) }
	cfg.Kernel = r.group.Shard(id / r.dpk)
	n := NewNetwork(cfg)
	k := n.K
	d := &district{id: id, n: n, trunks: make([]*netsim.Trunk, len(r.ds)), checks: make([]rowCheck, sp.NumRows())}
	switch sp.Arena.Kind {
	case scenario.ArenaMobile:
		d.model = mobility.NewRandomWaypoint(per, sp.Arena.Side,
			sp.Arena.MinSpeed, sp.Arena.MaxSpeed, sp.Arena.Pause, k.Rand.Split())
		d.mob = n.EnableMobility(d.model, sp.Arena.Radius, sp.Arena.Refresh)
		d.mob.RefreshNow()
	case scenario.ArenaStatic:
		// Positions are drawn once from their own split — the static
		// arena's analogue of the mobility model's stream — and the link
		// table is synthesized by one refresh on a throwaway scratch. No
		// periodic refresh runs, so injected link faults persist until a
		// rejoin fault undoes them.
		prng := k.Rand.Split()
		d.pos = make([]topo.Point, per)
		for i := range d.pos {
			d.pos[i] = topo.Point{X: prng.Float64() * sp.Arena.Side, Y: prng.Float64() * sp.Arena.Side}
		}
		var cs mobility.ConnScratch
		cs.RefreshInto(g, d.pos, sp.Arena.Radius)
	}
	n.Router.Pulse()
	n.StartPulses(sp.PulsePeriod)
	if sp.HealPeriod > 0 {
		d.healer = n.EnableSelfHealing(sp.HealPeriod)
	}

	// Telemetry: fixed-memory sinks plus the flight-recorder tick.
	// Strictly observational — a scenario's pre-telemetry columns replay
	// byte-identical (pinned by the cross-worker CI gates).
	d.tel = n.EnableTelemetry(TelemetryConfig{Tick: sp.TelemetryTick, SLO: sc.slo})
	d.tel.Rec.Gauge("links.up", func() float64 { return float64(d.linksUp()) })
	if d.healer != nil {
		d.tel.Rec.CounterFn("healer.repairs", func() float64 { return float64(d.healer.Repairs) })
	}

	// Role deployment: epidemic jets seed functional differentiation.
	for _, j := range sc.jets {
		if j.at/per == id {
			n.InjectJet(j.at%per, j.kind, j.fanout)
		}
	}

	d.rng = k.Rand.Split()
	if c := sp.Churn; c != nil {
		k.Every(c.Period, func() {
			if !inWindow(k.Now(), c.Start, c.Stop) {
				return
			}
			i := d.rng.Intn(per)
			if n.Ships[i].State() == ship.Alive {
				n.KillShip(i)
			}
		})
	}
	for i := range sp.Traffic {
		d.armTraffic(&sp.Traffic[i], sc.zipf[i])
	}
	if ct := sp.CrossTraffic; ct != nil {
		// Each district sends from one of its ships to a random ship of
		// another district every Period.
		k.Every(ct.Period, func() {
			if !inWindow(k.Now(), ct.Start, ct.Stop) {
				return
			}
			src := d.rng.Intn(per)
			dd := d.rng.Intn(len(r.ds) - 1)
			if dd >= id {
				dd++
			}
			r.sendCross(d, src, dd*per+d.rng.Intn(per), ct.Overlay)
		})
	}
	return d
}

// armTraffic schedules one traffic generator over the district's ships.
// Every per-slot closure draws only from the shared run stream and sends
// through the standard shuttle path, so generators compose without
// perturbing each other's schedules — only the stream consumption
// interleaves, deterministically. Fixed-pair generators (onoff, cbr) run
// only in the district that owns the pair.
func (d *district) armTraffic(tr *scenario.Traffic, zipf *workload.Zipf) {
	n, k, rng, per := d.n, d.n.K, d.rng, len(d.n.Ships)
	send := func(src, dst int) {
		n.SendShuttle(n.NewShuttle(shuttle.Data, src, dst), tr.Overlay)
	}
	gated := func() bool { return inWindow(k.Now(), tr.Start, tr.Stop) }
	// pair sends between a random source and a uniform (or, for hotspot
	// traffic, Zipf-drawn) destination.
	pair := func() {
		if !gated() {
			return
		}
		src, dst := rng.Intn(per), 0
		if zipf != nil {
			dst = zipf.Draw(rng)
		} else {
			dst = rng.Intn(per)
		}
		if src != dst {
			send(src, dst)
		}
	}
	fixed := func(roles.Chunk) {
		if gated() {
			send(tr.Src%per, tr.Dst%per)
		}
	}
	switch tr.Kind {
	case scenario.TrafficUniform, scenario.TrafficHotspot:
		k.Every(tr.Period, pair)
	case scenario.TrafficPoisson:
		workload.Poisson(k, rng, tr.Rate, func(int) { pair() })
	case scenario.TrafficDistrict:
		tries := tr.Tries
		if tries == 0 {
			tries = 64
		}
		k.Every(tr.Period, func() {
			if !gated() {
				return
			}
			src := rng.Intn(per)
			pos := d.positions()
			for try := 0; try < tries; try++ {
				dst := rng.Intn(per)
				if dst == src || pos[src].Dist(pos[dst]) > tr.MaxDist {
					continue
				}
				send(src, dst)
				break
			}
		})
	case scenario.TrafficOnOff:
		if tr.Src/per == d.id {
			workload.OnOff(k, rng, flowName(tr.Overlay),
				tr.Rate*float64(scenarioChunkBytes), tr.OnMean, tr.OffMean, scenarioChunkBytes, fixed)
		}
	case scenario.TrafficCBR:
		if tr.Src/per == d.id {
			workload.CBR(k, flowName(tr.Overlay),
				tr.Rate*float64(scenarioChunkBytes), scenarioChunkBytes, fixed)
		}
	}
}

// scenarioChunkBytes sizes the workload-generator chunks whose cadence
// carries onoff/cbr shuttle traffic: Rate shuttles/s at this chunk size.
const scenarioChunkBytes = 1000

// applyFault injects one scheduled fault. Faults that change the link
// table re-pulse the router immediately so traffic reacts at the fault
// instant rather than the next pulse tick.
func (d *district) applyFault(f scenario.Fault) {
	n, g := d.n, d.n.G
	switch f.Kind {
	case scenario.FaultPartition, scenario.FaultRejoin:
		up := f.Kind == scenario.FaultRejoin
		for li := 0; li < g.Links(); li++ {
			l := g.Link(li)
			if (g.Pos(l.From).X < f.Cut) != (g.Pos(l.To).X < f.Cut) {
				g.SetUp(li, up)
			}
		}
		n.Router.Pulse()
	case scenario.FaultBlackout:
		center := topo.Point{X: f.X, Y: f.Y}
		pos := d.positions()
		for i, s := range n.Ships {
			if s.State() == ship.Alive && pos[i].Dist(center) <= f.R {
				n.KillShip(i)
			}
		}
	case scenario.FaultKillNode:
		if n.Ships[f.Node].State() == ship.Alive {
			n.KillShip(f.Node)
		}
	case scenario.FaultLinkDown, scenario.FaultLinkUp:
		up := f.Kind == scenario.FaultLinkUp
		if li := g.LinkBetween(topo.NodeID(f.From), topo.NodeID(f.To)); li >= 0 {
			g.SetUp(li, up)
		}
		if li := g.LinkBetween(topo.NodeID(f.To), topo.NodeID(f.From)); li >= 0 {
			g.SetUp(li, up)
		}
		n.Router.Pulse()
	}
}

// capture snapshots the district at checkpoint row.
func (d *district) capture(row int) {
	c := &d.checks[row]
	c.roleCounts = make([]int, roles.NumKinds)
	for _, s := range d.n.Ships {
		if s.State() == ship.Alive {
			c.alive++
			c.roleCounts[s.ModalRole()]++
		}
	}
	c.links, c.repairs, c.partitions = d.linksUp(), d.repairs(), d.partitions()
	c.delivered, c.lost = d.n.DeliveredShuttles, d.n.LostShuttles
	f := d.tel.Flow("")
	rep := d.tel.QoS.Report(f)
	c.sent, c.deliv = rep.Sent, rep.Delivered
	c.lat = telemetry.NewHist()
	c.lat.Merge(d.tel.QoS.Latency(f))
}

// finish seals a run that has reached the horizon: releases the shard
// workers, stops the tickers, packages the one-district telemetry dump,
// merges the checkpoint rows and evaluates the assertions.
func (r *fleetRun) finish() *ScenarioResult {
	r.group.Close()
	for _, d := range r.ds {
		d.n.StopPulses()
		d.tel.Stop()
	}
	res := &ScenarioResult{Title: r.sc.Spec.Title, Rows: r.mergeRows()}
	if len(r.ds) == 1 {
		res.Dump = r.ds[0].tel.Dump()
	}
	res.Verdicts = r.evaluate()
	return res
}

// mergeRows folds the per-district checkpoints into result rows: counts
// sum, entropy is computed over the summed role counts, and the latency
// quantile columns and SLO bit come from the exactly merged histograms.
func (r *fleetRun) mergeRows() []ScenarioRow {
	sp := r.sc.Spec
	rows := make([]ScenarioRow, 0, sp.NumRows())
	for row, t := 0, sp.RowEvery; t <= sp.Horizon; row, t = row+1, t+sp.RowEvery {
		m := ScenarioRow{T: t}
		alive, sent, deliv := 0, uint64(0), uint64(0)
		counts := make([]int, roles.NumKinds)
		lat := telemetry.NewHist()
		for _, d := range r.ds {
			c := &d.checks[row]
			alive += c.alive
			m.LinksUp += c.links
			m.Delivered += c.delivered
			m.Lost += c.lost
			m.Repairs += c.repairs
			m.Partitions += c.partitions
			sent += c.sent
			deliv += c.deliv
			for i, n := range c.roleCounts {
				counts[i] += n
			}
			lat.Merge(c.lat)
		}
		m.AliveFrac = float64(alive) / float64(sp.Ships)
		m.Entropy = stats.Entropy(counts)
		m.P50ms, m.P95ms, m.P99ms = lat.Quantile(0.50)*1e3, lat.Quantile(0.95)*1e3, lat.Quantile(0.99)*1e3
		if r.sc.slo.Check(sent, deliv, lat) {
			m.SLOOK = 1
		}
		rows = append(rows, m)
	}
	return rows
}

// fleetTotals is the merged view of every district: summed counters and
// the scorecards merged by flow name.
type fleetTotals struct {
	alive, excluded          int
	delivered, lost, repairs uint64
	qos                      *telemetry.ScoreSet
}

// totals reads the merged view. Read-only: no flow registration, no RNG
// draws, no kernel events.
func (r *fleetRun) totals() fleetTotals {
	t := fleetTotals{qos: telemetry.NewScoreSet()}
	for _, d := range r.ds {
		for _, s := range d.n.Ships {
			if s.State() == ship.Alive {
				t.alive++
			}
		}
		t.delivered += d.n.DeliveredShuttles
		t.lost += d.n.LostShuttles
		t.repairs += d.repairs()
		t.excluded += d.n.Community.ExcludedCount()
		t.qos.MergeFrom(d.tel.QoS)
	}
	return t
}

// evaluate renders the spec's assertions against the finished run's
// merged view: flow SLO assertions first (spec order), then the
// scenario-level predicates in grammar order. Verdict order and text
// depend only on the spec and the run state, never on evaluation timing.
func (r *fleetRun) evaluate() []scenario.Verdict {
	a := &r.sc.Spec.Asserts
	// Asserted flows register in every district's own scorecards first, so
	// a one-district Dump — rendered after this — exports them even when
	// no traffic ever touched them.
	for _, d := range r.ds {
		for _, fa := range a.Flows {
			d.tel.Flow(fa.Flow)
		}
	}
	t := r.totals()
	var out []scenario.Verdict
	for _, fa := range a.Flows {
		f, _ := t.qos.Lookup(flowName(fa.Flow))
		rep, lat := t.qos.Report(f), t.qos.Latency(f)
		slo := telemetry.SLO{Quantile: fa.Quantile, MaxLatency: fa.MaxLatency, MinDeliveryRatio: fa.MinDeliveryRatio}
		detail := fmt.Sprintf("delivered %d/%d (ratio %.3f)", rep.Delivered, rep.Sent, rep.DeliveryRatio)
		if fa.MaxLatency > 0 {
			detail += fmt.Sprintf(", p%v latency %.4gs (bound %.4gs)", fa.Quantile*100, lat.Quantile(fa.Quantile), fa.MaxLatency)
		}
		out = append(out, scenario.Verdict{
			Name:   fmt.Sprintf("flow %q slo", flowName(fa.Flow)),
			Pass:   slo.Check(rep.Sent, rep.Delivered, lat),
			Detail: detail,
		})
	}
	if a.MinDelivered > 0 {
		out = append(out, scenario.Verdict{
			Name: "min_delivered", Pass: t.delivered >= a.MinDelivered,
			Detail: fmt.Sprintf("delivered %d (floor %d)", t.delivered, a.MinDelivered),
		})
	}
	if a.MaxLossRatio > 0 {
		ratio := 0.0
		if sum := t.delivered + t.lost; sum > 0 {
			ratio = float64(t.lost) / float64(sum)
		}
		out = append(out, scenario.Verdict{
			Name: "max_loss_ratio", Pass: ratio <= a.MaxLossRatio,
			Detail: fmt.Sprintf("loss ratio %.3f (cap %.3f)", ratio, a.MaxLossRatio),
		})
	}
	if a.MinAliveFrac > 0 {
		frac := float64(t.alive) / float64(r.sc.Spec.Ships)
		out = append(out, scenario.Verdict{
			Name: "min_alive_frac", Pass: frac >= a.MinAliveFrac,
			Detail: fmt.Sprintf("alive fraction %.3f (floor %.3f)", frac, a.MinAliveFrac),
		})
	}
	if a.MinRepairs > 0 {
		out = append(out, scenario.Verdict{
			Name: "min_repairs", Pass: t.repairs >= a.MinRepairs,
			Detail: fmt.Sprintf("repairs %d (floor %d)", t.repairs, a.MinRepairs),
		})
	}
	if a.MinExcluded > 0 {
		out = append(out, scenario.Verdict{
			Name: "min_excluded", Pass: t.excluded >= a.MinExcluded,
			Detail: fmt.Sprintf("excluded %d (floor %d)", t.excluded, a.MinExcluded),
		})
	}
	return out
}

// ScenarioID is the registry-style identifier of a compiled scenario
// (the spec name, uppercased) — the key mixed into the replicate seed
// stream, so a spec named "s1" replicates with exactly the seeds the
// registry's S1 entry uses.
func (sc *Scenario) ScenarioID() string { return strings.ToUpper(sc.Spec.Name) }

// ScenarioReplicate is one replicate's outcome under RunScenarioReplicated.
type ScenarioReplicate struct {
	Seed uint64
	Res  *ScenarioResult
}

// RunScenarioReplicated runs the scenario reps times fanned over workers
// goroutines with the registry seed discipline (deterministic per-
// replicate seeds; reps == 1 replays baseSeed verbatim), returning the
// aggregated mean±CI table plus every replicate in replicate order —
// byte-identical output for any worker count. Every replicate runs at
// the kernel count the process override resolves to (SetShardOverride).
func RunScenarioReplicated(sc *Scenario, reps int, baseSeed uint64, workers int) (*Replicated, []ScenarioReplicate, error) {
	return runScenarioReplicated(sc, reps, baseSeed, workers, sc.shardKernels())
}

// runScenarioReplicated is RunScenarioReplicated at k shard kernels.
func runScenarioReplicated(sc *Scenario, reps int, baseSeed uint64, workers, k int) (*Replicated, []ScenarioReplicate, error) {
	if reps < 1 {
		return nil, nil, fmt.Errorf("viator: reps = %d, want >= 1", reps)
	}
	id := sc.ScenarioID()
	if k > 1 {
		// Worker-budget split: each sharded replicate already runs k shard
		// goroutines, so the replicate fan-out gets the remaining budget
		// (an execution decision only — seeds and results are computed
		// identically for any worker count; see sim.RunParallel docs).
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = max(1, workers/k)
	}
	runs := sim.RunParallel(reps, replicateSeed(baseSeed, id), workers, func(i int, seed uint64) ScenarioReplicate {
		if reps == 1 {
			seed = baseSeed
		}
		return ScenarioReplicate{Seed: seed, Res: startScenario(sc, seed, k).Finish()}
	})
	seeds := make([]uint64, len(runs))
	tables := make([]*Table, len(runs))
	for i, run := range runs {
		seeds[i] = run.Seed
		tables[i] = run.Res.Table()
	}
	agg, err := aggregateReplicates(id, sc.Spec.Title, reps, baseSeed, seeds, tables)
	if err != nil {
		return nil, nil, err
	}
	return agg, runs, nil
}

// Embedded builtin specs: the stress scenarios S1 and S2, expressed in
// the DSL. The registry compiles them at init, so "the S1 the paper
// tables cite" and "the s1.json a user edits" can never drift apart.
//
//go:embed scenarios/s1.json scenarios/s2.json scenarios/s3.json scenarios/s3_smoke.json
var builtinSpecFS embed.FS

// mustLoadBuiltin compiles one embedded spec; failures are programming
// errors in the shipped JSON and panic at init.
func mustLoadBuiltin(path string) *Scenario {
	data, err := builtinSpecFS.ReadFile(path)
	if err != nil {
		panic(err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		panic(err)
	}
	return sc
}

// scenarioS1/S2/S3/S3S are the compiled builtin stress scenarios behind
// the registry's S1/S2/S3/S3S entries. S3 is the sharded "continent"
// (100k ships, heavy class: explicit -only S3 runs only); S3S is its
// CI-sized smoke variant and the base the shard benchmarks sweep.
var (
	scenarioS1  = mustLoadBuiltin("scenarios/s1.json")
	scenarioS2  = mustLoadBuiltin("scenarios/s2.json")
	scenarioS3  = mustLoadBuiltin("scenarios/s3.json")
	scenarioS3S = mustLoadBuiltin("scenarios/s3_smoke.json")
)
