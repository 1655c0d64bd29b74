// Package scenario defines the declarative scenario DSL: a JSON spec
// describing arena and topology, fleet size, traffic mix, churn
// schedule, fault injections and per-flow SLO assertions, which the root
// package compiles onto the Network/registry machinery. The spec grammar
// is deliberately stdlib-only (encoding/json — no YAML dependency) and
// the package holds no simulation state of its own: it parses, validates
// and round-trips specs, and types the assertion verdicts the compiled
// runner reports.
//
// The determinism contract extends to specs: a spec plus a seed fully
// determines a run. Everything a scenario does — every RNG draw, every
// scheduled event — is derived from the validated spec fields in field
// order, so equal specs compile to byte-identical runs at equal seeds,
// for any worker count.
//
// Parse errors are positional: syntax and type errors carry the 1-based
// line:column of the offending byte, and semantic validation errors name
// the JSON path of the bad field (e.g. "traffic[1].period").
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"viator/internal/roles"
)

// Arena kinds.
const (
	// ArenaMobile is radio-range connectivity over a continuously moving
	// fleet (random-waypoint model, incremental spatial-hash refresh).
	ArenaMobile = "mobile"
	// ArenaStatic is radio-range connectivity synthesized once from
	// seed-drawn positions and then left to the fault schedule: the arena
	// for partitions, link cuts and everything that must persist.
	ArenaStatic = "static"
)

// Traffic kinds.
const (
	// TrafficUniform sends one shuttle between an independently uniform
	// source/destination pair every period (the S1 metropolis pattern).
	TrafficUniform = "uniform"
	// TrafficDistrict sends between pairs at most MaxDist apart, found by
	// rejection sampling (the S2 megalopolis pattern).
	TrafficDistrict = "district"
	// TrafficPoisson is an open-loop Poisson arrival process of uniform
	// pairs at Rate events per second.
	TrafficPoisson = "poisson"
	// TrafficHotspot draws destinations Zipf(Exponent)-skewed toward low
	// ship indexes — the flash-crowd workload.
	TrafficHotspot = "hotspot"
	// TrafficOnOff is a bursty on/off source between a fixed pair:
	// exponential ON periods emitting at Rate shuttles/s, separated by
	// exponential OFF silences.
	TrafficOnOff = "onoff"
	// TrafficCBR is a constant-bit-rate stream between a fixed pair at
	// Rate shuttles per second.
	TrafficCBR = "cbr"
)

// Fault kinds.
const (
	// FaultPartition takes down every link crossing the vertical line
	// x = Cut (static arenas only — mobility would re-heal it).
	FaultPartition = "partition"
	// FaultRejoin restores every link crossing x = Cut.
	FaultRejoin = "rejoin"
	// FaultBlackout kills every alive ship within R of (X, Y) — the
	// correlated district failure.
	FaultBlackout = "blackout"
	// FaultKillNode kills one ship.
	FaultKillNode = "kill_node"
	// FaultLinkDown / FaultLinkUp toggle both directions of the
	// From–To link (static arenas only).
	FaultLinkDown = "link_down"
	FaultLinkUp   = "link_up"
)

// Spec is one declarative scenario. Field order here is the grammar
// reference: the compiler consumes fields strictly in this order, which
// is what makes "equal spec → byte-identical run" hold.
type Spec struct {
	// Name is the scenario's identifier (lowercase; becomes the registry
	// ID, uppercased, when the scenario is registered).
	Name string `json:"name"`
	// Title heads the output table.
	Title string `json:"title"`
	// Ships is the fleet size.
	Ships int `json:"ships"`
	// Horizon is the simulated duration in seconds.
	Horizon float64 `json:"horizon"`
	// RowEvery is the checkpoint-row period: rows are captured at
	// RowEvery, 2·RowEvery, … up to and including Horizon.
	RowEvery float64 `json:"row_every"`
	// UnfairFraction marks this share of ships as misreporting their
	// self-description (the SRP byzantine knob; reputation gossip
	// excludes them over time).
	UnfairFraction float64 `json:"unfair_fraction,omitempty"`

	Arena Arena `json:"arena"`

	// Shards partitions the fleet into this many spatial districts, each
	// run by its own kernel under the conservative sharded executor
	// (0 or 1 = the plain single-kernel path). Ships must divide evenly:
	// ship g lives in district g/(ships/shards) as local index
	// g%(ships/shards), each district owning a full arena of its own.
	// Districts are radio-isolated; the only inter-district paths are the
	// trunks, whose propagation delay is the executor's lookahead.
	Shards int `json:"shards,omitempty"`
	// Trunk describes the long-haul links between every ordered district
	// pair (required when shards > 1, forbidden otherwise).
	Trunk *TrunkSpec `json:"trunk,omitempty"`
	// CrossTraffic is the inter-district workload riding the trunks
	// (shards > 1 only): each district emits one shuttle every Period
	// seconds to a uniformly drawn ship in a uniformly drawn other
	// district.
	CrossTraffic *CrossTraffic `json:"cross_traffic,omitempty"`

	// PulsePeriod drives the autopoietic pulse loop (routing adaptation,
	// knowledge sweeps, resonance, reputation gossip).
	PulsePeriod float64 `json:"pulse_period"`
	// HealPeriod arms the self-healing loop; 0 disables it.
	HealPeriod float64 `json:"heal_period,omitempty"`
	// TelemetryTick is the flight-recorder sampling period; 0 disables
	// the periodic tick (sinks and scorecards still run).
	TelemetryTick float64 `json:"telemetry_tick,omitempty"`
	// SLO applies to every shuttle flow's scorecard (the table's "SLO ok"
	// column). Latencies are seconds.
	SLO SLO `json:"slo"`

	Jets    []Jet     `json:"jets,omitempty"`
	Churn   *Churn    `json:"churn,omitempty"`
	Traffic []Traffic `json:"traffic"`
	Faults  []Fault   `json:"faults,omitempty"`
	Asserts Asserts   `json:"asserts"`
}

// Arena describes the physical layer.
type Arena struct {
	Kind string `json:"kind"`
	// Side is the square arena's edge length; Radius the radio range.
	Side   float64 `json:"side"`
	Radius float64 `json:"radius"`
	// Refresh is the connectivity-refresh period (mobile only).
	Refresh float64 `json:"refresh,omitempty"`
	// Random-waypoint parameters (mobile only).
	MinSpeed float64 `json:"min_speed,omitempty"`
	MaxSpeed float64 `json:"max_speed,omitempty"`
	Pause    float64 `json:"pause,omitempty"`
}

// TrunkSpec describes the inter-district trunk links: bandwidth in bytes
// per second, propagation delay in seconds (the conservative lookahead —
// larger delays mean wider parallel windows), and the bounded output
// queue in bytes.
type TrunkSpec struct {
	Bandwidth float64 `json:"bandwidth"`
	Delay     float64 `json:"delay"`
	QueueCap  int     `json:"queue_cap"`
}

// CrossTraffic is the inter-district generator: each district sends one
// shuttle every Period seconds to a uniform ship in a uniform other
// district, tagged with Overlay ("" = default data flow). Start/Stop
// gate emission (Stop 0 = forever).
type CrossTraffic struct {
	Period  float64 `json:"period"`
	Overlay string  `json:"overlay,omitempty"`
	Start   float64 `json:"start,omitempty"`
	Stop    float64 `json:"stop,omitempty"`
}

// SLO mirrors telemetry.SLO in spec form: the latency quantile that must
// stay at or under MaxLatency seconds, and the minimum delivery ratio.
// Zero values disable a clause.
type SLO struct {
	Quantile         float64 `json:"quantile,omitempty"`
	MaxLatency       float64 `json:"max_latency,omitempty"`
	MinDeliveryRatio float64 `json:"min_delivery_ratio,omitempty"`
}

// Jet seeds one role-deployment jet at ship At.
type Jet struct {
	At     int    `json:"at"`
	Role   string `json:"role"`
	Fanout int    `json:"fanout"`
}

// Churn kills one uniformly random alive ship every Period seconds,
// optionally only inside the [Start, Stop) window (Stop 0 = forever).
type Churn struct {
	Period float64 `json:"period"`
	Start  float64 `json:"start,omitempty"`
	Stop   float64 `json:"stop,omitempty"`
}

// Traffic is one generator in the scenario's traffic mix. Kind selects
// the generator; the other fields parameterize it (see the Traffic*
// constants). Start/Stop gate emission to a window (Stop 0 = forever).
type Traffic struct {
	Kind    string  `json:"kind"`
	Period  float64 `json:"period,omitempty"`   // uniform, district, hotspot
	Rate    float64 `json:"rate,omitempty"`     // poisson, onoff, cbr: shuttles/s
	MaxDist float64 `json:"max_dist,omitempty"` // district
	Tries   int     `json:"tries,omitempty"`    // district rejection-sampling budget
	// Exponent is the hotspot Zipf skew (s > 0).
	Exponent float64 `json:"exponent,omitempty"`
	// Src/Dst fix the pair for onoff and cbr.
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`
	// OnMean/OffMean are the onoff burst/silence means in seconds.
	OnMean  float64 `json:"on_mean,omitempty"`
	OffMean float64 `json:"off_mean,omitempty"`
	// Overlay names the routing overlay (and scorecard flow) the
	// generator's shuttles ride; "" is the default data flow.
	Overlay string  `json:"overlay,omitempty"`
	Start   float64 `json:"start,omitempty"`
	Stop    float64 `json:"stop,omitempty"`
}

// Fault is one scheduled injection at sim time At.
type Fault struct {
	At   float64 `json:"at"`
	Kind string  `json:"kind"`
	// Cut is the partition/rejoin line's x coordinate.
	Cut float64 `json:"cut,omitempty"`
	// X, Y, R describe the blackout circle.
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`
	R float64 `json:"r,omitempty"`
	// Node is the kill_node target.
	Node int `json:"node,omitempty"`
	// From/To name the link_down / link_up pair.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
}

// Asserts are the scenario's pass/fail gates, evaluated after the run.
// Zero values disable a clause.
type Asserts struct {
	// Flows asserts per-flow SLOs from the telemetry scorecards.
	Flows []FlowAssert `json:"flows,omitempty"`
	// MinDelivered floors the shuttle deliveries.
	MinDelivered uint64 `json:"min_delivered,omitempty"`
	// MaxLossRatio caps lost/(delivered+lost).
	MaxLossRatio float64 `json:"max_loss_ratio,omitempty"`
	// MinAliveFrac floors the final alive fraction.
	MinAliveFrac float64 `json:"min_alive_frac,omitempty"`
	// MinRepairs floors the self-healing resurrections.
	MinRepairs uint64 `json:"min_repairs,omitempty"`
	// MinExcluded floors the reputation exclusions (byzantine scenarios).
	MinExcluded int `json:"min_excluded,omitempty"`
}

// FlowAssert is one per-flow SLO assertion: the flow is the overlay name
// ("" = default data flow); latency is seconds.
type FlowAssert struct {
	Flow             string  `json:"flow"`
	Quantile         float64 `json:"quantile,omitempty"`
	MaxLatency       float64 `json:"max_latency,omitempty"`
	MinDeliveryRatio float64 `json:"min_delivery_ratio,omitempty"`
}

// Verdict is one assertion's evaluated outcome.
type Verdict struct {
	// Name identifies the assertion (e.g. `flow "data" slo`,
	// `min_delivered`).
	Name string
	Pass bool
	// Detail states observed vs required, for humans.
	Detail string
}

// AllPass reports whether every verdict passed.
func AllPass(vs []Verdict) bool {
	for _, v := range vs {
		if !v.Pass {
			return false
		}
	}
	return true
}

// Error is a positional spec error: Path is either "line:col" (parse
// errors) or the JSON path of the offending field (validation errors).
type Error struct {
	Name string // spec name when known, else ""
	Path string
	Msg  string
}

func (e *Error) Error() string {
	where := e.Path
	if e.Name != "" {
		where = e.Name + ": " + where
	}
	return "scenario: " + where + ": " + e.Msg
}

// lineCol converts a byte offset into 1-based line:column.
func lineCol(data []byte, off int64) string {
	if off < 0 {
		off = 0
	}
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	line := 1 + bytes.Count(data[:off], []byte{'\n'})
	col := int(off) - bytes.LastIndexByte(data[:off], '\n')
	return fmt.Sprintf("%d:%d", line, col)
}

// Parse decodes and validates one spec. Unknown fields are rejected, so
// a typo'd knob can never silently become a no-op. Errors are positional
// (line:column for parse errors, JSON field paths for validation).
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	sp := &Spec{}
	if err := dec.Decode(sp); err != nil {
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			return nil, &Error{Path: lineCol(data, syn.Offset), Msg: syn.Error()}
		case errors.As(err, &typ):
			return nil, &Error{Path: lineCol(data, typ.Offset), Msg: err.Error()}
		default:
			// Unknown-field (and io) errors carry no offset of their own;
			// the decoder's input offset points just past the field name.
			return nil, &Error{Path: lineCol(data, dec.InputOffset()), Msg: err.Error()}
		}
	}
	// Trailing garbage after the spec object is an error, not ignored.
	if dec.More() {
		return nil, &Error{Path: lineCol(data, dec.InputOffset()), Msg: "trailing data after spec object"}
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// Marshal renders the spec as indented JSON. Parse(Marshal(sp)) is
// identical to sp for any valid spec (the fuzz-pinned round-trip law).
//
//viator:api called by the bench module (bench/perf), outside this module
func (sp *Spec) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// errf builds a positional validation error.
func (sp *Spec) errf(path, format string, args ...any) error {
	return &Error{Name: sp.Name, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// validName reports whether name is a lowercase [a-z0-9_-]+ identifier.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		if !('a' <= r && r <= 'z' || '0' <= r && r <= '9' || r == '_' || r == '-') {
			return false
		}
	}
	return true
}

// NumRows returns the number of checkpoint rows the scenario captures —
// computed with the same float accumulation the compiled row loop uses,
// so the two can never disagree.
func (sp *Spec) NumRows() int {
	rows := 0
	for t := sp.RowEvery; t <= sp.Horizon; t += sp.RowEvery {
		rows++
	}
	return rows
}

// window validates a [start, stop) gate at path.
func (sp *Spec) window(path string, start, stop float64) error {
	if start < 0 {
		return sp.errf(path+".start", "must be >= 0, got %v", start)
	}
	if stop != 0 && stop <= start {
		return sp.errf(path+".stop", "must be 0 (forever) or > start, got %v", stop)
	}
	return nil
}

// shipIndex validates a ship index at path.
func (sp *Spec) shipIndex(path string, i int) error {
	if i < 0 || i >= sp.Ships {
		return sp.errf(path, "ship index %d out of range [0, %d)", i, sp.Ships)
	}
	return nil
}

// Validate checks every semantic constraint of the grammar. The compiler
// only accepts validated specs, so everything structural is rejected
// here with a field path rather than panicking mid-run.
func (sp *Spec) Validate() error {
	if !validName(sp.Name) {
		return sp.errf("name", "must be a non-empty lowercase [a-z0-9_-] identifier, got %q", sp.Name)
	}
	if sp.Title == "" {
		return sp.errf("title", "must be non-empty")
	}
	if sp.Ships < 2 {
		return sp.errf("ships", "must be >= 2, got %d", sp.Ships)
	}
	if !(sp.Horizon > 0) {
		return sp.errf("horizon", "must be > 0, got %v", sp.Horizon)
	}
	if !(sp.RowEvery > 0) || sp.RowEvery > sp.Horizon {
		return sp.errf("row_every", "must be in (0, horizon], got %v", sp.RowEvery)
	}
	if sp.NumRows() == 0 {
		return sp.errf("row_every", "no checkpoint rows in horizon %v", sp.Horizon)
	}
	if sp.UnfairFraction < 0 || sp.UnfairFraction >= 1 {
		return sp.errf("unfair_fraction", "must be in [0, 1), got %v", sp.UnfairFraction)
	}
	if err := sp.validateArena(); err != nil {
		return err
	}
	if err := sp.validateSharding(); err != nil {
		return err
	}
	if !(sp.PulsePeriod > 0) {
		return sp.errf("pulse_period", "must be > 0, got %v", sp.PulsePeriod)
	}
	if sp.HealPeriod < 0 {
		return sp.errf("heal_period", "must be >= 0, got %v", sp.HealPeriod)
	}
	if sp.TelemetryTick < 0 {
		return sp.errf("telemetry_tick", "must be >= 0, got %v", sp.TelemetryTick)
	}
	if err := sp.validateSLO("slo", sp.SLO.Quantile, sp.SLO.MaxLatency, sp.SLO.MinDeliveryRatio); err != nil {
		return err
	}
	for i, j := range sp.Jets {
		path := fmt.Sprintf("jets[%d]", i)
		if err := sp.shipIndex(path+".at", j.At); err != nil {
			return err
		}
		if _, ok := roles.KindByName(j.Role); !ok {
			return sp.errf(path+".role", "unknown role %q", j.Role)
		}
		if j.Fanout < 0 {
			return sp.errf(path+".fanout", "must be >= 0, got %d", j.Fanout)
		}
	}
	if sp.Churn != nil {
		if !(sp.Churn.Period > 0) {
			return sp.errf("churn.period", "must be > 0, got %v", sp.Churn.Period)
		}
		if err := sp.window("churn", sp.Churn.Start, sp.Churn.Stop); err != nil {
			return err
		}
	}
	if len(sp.Traffic) == 0 {
		return sp.errf("traffic", "at least one traffic generator is required")
	}
	overlays := map[string]bool{"": true}
	for i := range sp.Traffic {
		if err := sp.validateTraffic(i); err != nil {
			return err
		}
		overlays[sp.Traffic[i].Overlay] = true
	}
	if sp.CrossTraffic != nil {
		overlays[sp.CrossTraffic.Overlay] = true
	}
	for i, f := range sp.Faults {
		if err := sp.validateFault(i, f); err != nil {
			return err
		}
	}
	for i, a := range sp.Asserts.Flows {
		path := fmt.Sprintf("asserts.flows[%d]", i)
		if !overlays[a.Flow] {
			return sp.errf(path+".flow", "flow %q matches no traffic overlay", a.Flow)
		}
		if err := sp.validateSLO(path, a.Quantile, a.MaxLatency, a.MinDeliveryRatio); err != nil {
			return err
		}
		if a.MaxLatency == 0 && a.MinDeliveryRatio == 0 {
			return sp.errf(path, "assertion has no clause (set max_latency and/or min_delivery_ratio)")
		}
	}
	if sp.Asserts.MaxLossRatio < 0 || sp.Asserts.MaxLossRatio > 1 {
		return sp.errf("asserts.max_loss_ratio", "must be in [0, 1], got %v", sp.Asserts.MaxLossRatio)
	}
	if sp.Asserts.MinAliveFrac < 0 || sp.Asserts.MinAliveFrac > 1 {
		return sp.errf("asserts.min_alive_frac", "must be in [0, 1], got %v", sp.Asserts.MinAliveFrac)
	}
	if sp.Asserts.MinExcluded < 0 {
		return sp.errf("asserts.min_excluded", "must be >= 0, got %d", sp.Asserts.MinExcluded)
	}
	if sp.Asserts.MinRepairs > 0 && sp.HealPeriod == 0 {
		return sp.errf("asserts.min_repairs", "requires heal_period > 0")
	}
	if sp.Asserts.MinExcluded > 0 && sp.UnfairFraction == 0 {
		return sp.errf("asserts.min_excluded", "requires unfair_fraction > 0")
	}
	return nil
}

func (sp *Spec) validateArena() error {
	a := sp.Arena
	switch a.Kind {
	case ArenaMobile:
		if !(a.Refresh > 0) {
			return sp.errf("arena.refresh", "must be > 0 for mobile arenas, got %v", a.Refresh)
		}
		if a.MinSpeed < 0 || a.MaxSpeed < a.MinSpeed || !(a.MaxSpeed > 0) {
			return sp.errf("arena", "need 0 <= min_speed <= max_speed and max_speed > 0, got [%v, %v]", a.MinSpeed, a.MaxSpeed)
		}
		if a.Pause < 0 {
			return sp.errf("arena.pause", "must be >= 0, got %v", a.Pause)
		}
	case ArenaStatic:
		if a.Refresh != 0 || a.MinSpeed != 0 || a.MaxSpeed != 0 || a.Pause != 0 {
			return sp.errf("arena", "static arenas take no mobility parameters")
		}
	default:
		return sp.errf("arena.kind", "unknown kind %q (want %q or %q)", a.Kind, ArenaMobile, ArenaStatic)
	}
	if !(a.Side > 0) {
		return sp.errf("arena.side", "must be > 0, got %v", a.Side)
	}
	if !(a.Radius > 0) {
		return sp.errf("arena.radius", "must be > 0, got %v", a.Radius)
	}
	return nil
}

// validateSharding checks the shards/trunk/cross_traffic triple. The
// sharded compiler derives its lookahead from trunk.delay, so the spec
// refuses anything that would make the conservative windows degenerate
// (zero delay) or the partition uneven (ships not divisible).
func (sp *Spec) validateSharding() error {
	if sp.Shards < 0 {
		return sp.errf("shards", "must be >= 0, got %d", sp.Shards)
	}
	if sp.Shards <= 1 {
		if sp.Trunk != nil {
			return sp.errf("trunk", "requires shards > 1")
		}
		if sp.CrossTraffic != nil {
			return sp.errf("cross_traffic", "requires shards > 1")
		}
		return nil
	}
	if sp.Ships%sp.Shards != 0 {
		return sp.errf("shards", "ships (%d) must divide evenly into %d shards", sp.Ships, sp.Shards)
	}
	if sp.Ships/sp.Shards < 2 {
		return sp.errf("shards", "each shard needs >= 2 ships, got %d", sp.Ships/sp.Shards)
	}
	if sp.Trunk == nil {
		return sp.errf("trunk", "required when shards > 1 (the trunk delay is the lookahead)")
	}
	if !(sp.Trunk.Bandwidth > 0) {
		return sp.errf("trunk.bandwidth", "must be > 0, got %v", sp.Trunk.Bandwidth)
	}
	if !(sp.Trunk.Delay > 0) {
		return sp.errf("trunk.delay", "must be > 0 (zero lookahead forfeits all parallelism), got %v", sp.Trunk.Delay)
	}
	if sp.Trunk.QueueCap <= 0 {
		return sp.errf("trunk.queue_cap", "must be > 0, got %d", sp.Trunk.QueueCap)
	}
	if sp.CrossTraffic != nil {
		if !(sp.CrossTraffic.Period > 0) {
			return sp.errf("cross_traffic.period", "must be > 0, got %v", sp.CrossTraffic.Period)
		}
		if err := sp.window("cross_traffic", sp.CrossTraffic.Start, sp.CrossTraffic.Stop); err != nil {
			return err
		}
	}
	if len(sp.Faults) > 0 {
		return sp.errf("faults", "fault injection is not yet supported with shards > 1")
	}
	return nil
}

func (sp *Spec) validateSLO(path string, q, maxLat, minRatio float64) error {
	if maxLat < 0 {
		return sp.errf(path+".max_latency", "must be >= 0, got %v", maxLat)
	}
	if maxLat > 0 && !(q > 0 && q < 1) {
		return sp.errf(path+".quantile", "must be in (0, 1) when max_latency is set, got %v", q)
	}
	if minRatio < 0 || minRatio > 1 {
		return sp.errf(path+".min_delivery_ratio", "must be in [0, 1], got %v", minRatio)
	}
	return nil
}

func (sp *Spec) validateTraffic(i int) error {
	tr := sp.Traffic[i]
	path := fmt.Sprintf("traffic[%d]", i)
	needPeriod := func() error {
		if !(tr.Period > 0) {
			return sp.errf(path+".period", "must be > 0, got %v", tr.Period)
		}
		return nil
	}
	needRate := func() error {
		if !(tr.Rate > 0) {
			return sp.errf(path+".rate", "must be > 0, got %v", tr.Rate)
		}
		return nil
	}
	needPair := func() error {
		if err := sp.shipIndex(path+".src", tr.Src); err != nil {
			return err
		}
		if err := sp.shipIndex(path+".dst", tr.Dst); err != nil {
			return err
		}
		if tr.Src == tr.Dst {
			return sp.errf(path, "src and dst must differ")
		}
		if sp.Shards > 1 {
			// Fixed pairs must live in the same district: the generators
			// run on one shard's kernel, and only cross_traffic crosses.
			size := sp.Ships / sp.Shards
			if tr.Src/size != tr.Dst/size {
				return sp.errf(path, "fixed pair spans districts %d and %d; inter-district traffic must use cross_traffic",
					tr.Src/size, tr.Dst/size)
			}
		}
		return nil
	}
	switch tr.Kind {
	case TrafficUniform:
		if err := needPeriod(); err != nil {
			return err
		}
	case TrafficDistrict:
		if err := needPeriod(); err != nil {
			return err
		}
		if !(tr.MaxDist > 0) {
			return sp.errf(path+".max_dist", "must be > 0, got %v", tr.MaxDist)
		}
		if tr.Tries < 0 {
			return sp.errf(path+".tries", "must be >= 0 (0 = default 64), got %d", tr.Tries)
		}
	case TrafficPoisson:
		if err := needRate(); err != nil {
			return err
		}
	case TrafficHotspot:
		if err := needPeriod(); err != nil {
			return err
		}
		if !(tr.Exponent > 0) {
			return sp.errf(path+".exponent", "must be > 0, got %v", tr.Exponent)
		}
	case TrafficOnOff:
		if err := needRate(); err != nil {
			return err
		}
		if err := needPair(); err != nil {
			return err
		}
		if !(tr.OnMean > 0) || !(tr.OffMean > 0) {
			return sp.errf(path, "on_mean and off_mean must be > 0, got %v, %v", tr.OnMean, tr.OffMean)
		}
	case TrafficCBR:
		if err := needRate(); err != nil {
			return err
		}
		if err := needPair(); err != nil {
			return err
		}
	default:
		return sp.errf(path+".kind", "unknown kind %q", tr.Kind)
	}
	return sp.window(path, tr.Start, tr.Stop)
}

func (sp *Spec) validateFault(i int, f Fault) error {
	path := fmt.Sprintf("faults[%d]", i)
	if f.At < 0 || f.At > sp.Horizon {
		return sp.errf(path+".at", "must be in [0, horizon], got %v", f.At)
	}
	staticOnly := func() error {
		if sp.Arena.Kind != ArenaStatic {
			return sp.errf(path, "%s faults need a static arena (mobility re-heals links)", f.Kind)
		}
		return nil
	}
	switch f.Kind {
	case FaultPartition, FaultRejoin:
		if err := staticOnly(); err != nil {
			return err
		}
		if !(f.Cut > 0 && f.Cut < sp.Arena.Side) {
			return sp.errf(path+".cut", "must be inside (0, side), got %v", f.Cut)
		}
	case FaultBlackout:
		if !(f.R > 0) {
			return sp.errf(path+".r", "must be > 0, got %v", f.R)
		}
	case FaultKillNode:
		if err := sp.shipIndex(path+".node", f.Node); err != nil {
			return err
		}
	case FaultLinkDown, FaultLinkUp:
		if err := staticOnly(); err != nil {
			return err
		}
		if err := sp.shipIndex(path+".from", f.From); err != nil {
			return err
		}
		if err := sp.shipIndex(path+".to", f.To); err != nil {
			return err
		}
		if f.From == f.To {
			return sp.errf(path, "from and to must differ")
		}
	default:
		return sp.errf(path+".kind", "unknown kind %q", f.Kind)
	}
	return nil
}
