package viator

import (
	"viator/internal/roles"
	"viator/internal/ship"
	"viator/internal/sim"
	"viator/internal/telemetry"
)

// Streaming telemetry for a running Network. EnableTelemetry arms the
// fixed-memory observability stack from internal/telemetry:
//
//   - the transport's latency sink switches from the retained-sample
//     stats.Summary to a telemetry.Hist, so steady-state delivery is
//     allocation-free and memory stays fixed at any packet count;
//   - a second Hist observes per-link queue depth at every enqueue;
//   - a ScoreSet keeps a per-overlay QoS scorecard (delivery ratio,
//     p50/p95/p99 latency, SLO verdict) for every shuttle flow;
//   - a flight Recorder samples the core counters (shuttles delivered
//     and lost, packets delivered and dropped, router pulse-gate hits)
//     and a per-role fleet census on a fixed sim-time tick into columnar
//     ring buffers with windowed min/mean/max rollups.
//
// Determinism contract: telemetry observes, it never steers. The
// recorder tick is scheduled on the kernel, so it adds events — but its
// callbacks only read state, never mutate it and never draw from any
// RNG, so every pre-existing metric of a scenario replays byte-identical
// with telemetry on or off. The stress scenarios (S1, S2) rely on this:
// their original columns are unchanged from the pre-telemetry goldens
// while the new percentile/SLO columns ride alongside.

// Telemetry bundles one Network's streaming sinks.
type Telemetry struct {
	Rec        *telemetry.Recorder
	QoS        *telemetry.ScoreSet
	Latency    *telemetry.Hist // end-to-end packet delivery latency, seconds
	QueueDepth *telemetry.Hist // per-link queue occupancy at enqueue, bytes

	net        *Network
	ticker     *sim.Ticker
	defaultSLO telemetry.SLO
	flows      map[string]telemetry.FlowID
	census     [roles.NumKinds]int
}

// TelemetryConfig parameterizes EnableTelemetry.
type TelemetryConfig struct {
	// Tick is the recorder sampling period in sim seconds; <= 0 disables
	// the periodic recorder tick (sinks and scorecards still run).
	Tick float64
	// SLO applies to every shuttle flow registered on demand.
	SLO telemetry.SLO
}

// The recorder keeps recorderCapacity samples per series and rolls them
// up over recorderWindow ticks.
const (
	recorderCapacity = 256
	recorderWindow   = 4
)

// EnableTelemetry arms the telemetry stack. Call it after the topology
// and routing are set up, and before traffic starts; series registered
// on the returned Recorder (e.g. a mobility links-up gauge) must also be
// added before the first tick fires.
func (n *Network) EnableTelemetry(cfg TelemetryConfig) *Telemetry {
	t := &Telemetry{
		Rec:        telemetry.NewRecorder(recorderCapacity, recorderWindow),
		QoS:        telemetry.NewScoreSet(),
		Latency:    telemetry.NewHist(),
		QueueDepth: telemetry.NewHist(),
		net:        n,
		defaultSLO: cfg.SLO,
		flows:      make(map[string]telemetry.FlowID),
	}
	n.Net.LatencyHist = t.Latency
	n.Net.QueueHist = t.QueueDepth

	t.Rec.CounterFn("shuttles.delivered", func() float64 { return float64(n.DeliveredShuttles) })
	t.Rec.CounterFn("shuttles.lost", func() float64 { return float64(n.LostShuttles) })
	t.Rec.CounterFn("packets.delivered", func() float64 { return float64(n.Net.Delivered) })
	t.Rec.CounterFn("packets.dropped", func() float64 {
		return float64(n.Net.DroppedQ + n.Net.DroppedLoss + n.Net.DroppedTTL +
			n.Net.DroppedRED + n.Net.DroppedRoute)
	})
	t.Rec.CounterFn("router.pulse_gate_hits", func() float64 { return float64(n.Router.SkippedPulses) })
	// Role census: one fleet pass per tick shared by all per-role gauges.
	t.Rec.BeforeTick(func() {
		for k := range t.census {
			t.census[k] = 0
		}
		for _, s := range n.Ships {
			if s.State() == ship.Alive {
				t.census[s.ModalRole()]++
			}
		}
	})
	for k := roles.Kind(0); k < roles.NumKinds; k++ {
		k := k
		t.Rec.Gauge("roles."+k.String(), func() float64 { return float64(t.census[k]) })
	}
	if cfg.Tick > 0 {
		t.ticker = n.K.Every(cfg.Tick, func() { t.Rec.Tick(n.K.Now()) })
	}
	n.Tel = t
	return t
}

// Stop disarms the periodic recorder tick (sinks keep accumulating).
func (t *Telemetry) Stop() {
	if t.ticker != nil {
		t.ticker.Stop()
		t.ticker = nil
	}
}

// flowName maps an overlay to its scorecard flow name.
func flowName(overlay string) string {
	if overlay == "" {
		return "data"
	}
	return overlay
}

// flowFor resolves the scorecard flow for an overlay, registering it
// with the network-wide SLO on first use.
func (t *Telemetry) flowFor(overlay string) telemetry.FlowID {
	if f, ok := t.flows[overlay]; ok {
		return f
	}
	f := t.QoS.Flow(flowName(overlay), t.defaultSLO)
	t.flows[overlay] = f
	return f
}

// Flow exposes the scorecard handle for an overlay's shuttle flow.
func (t *Telemetry) Flow(overlay string) telemetry.FlowID { return t.flowFor(overlay) }

// Report evaluates the scorecard for an overlay's shuttle flow now.
func (t *Telemetry) Report(overlay string) telemetry.FlowReport {
	return t.QoS.Report(t.flowFor(overlay))
}

// Dump packages the current sinks for the export pipeline.
func (t *Telemetry) Dump() *telemetry.Dump {
	return &telemetry.Dump{
		Rec: t.Rec,
		Hists: []telemetry.NamedHist{
			{Name: "latency_seconds", H: t.Latency},
			{Name: "queue_depth_bytes", H: t.QueueDepth},
		},
		QoS:   t.QoS,
		Trace: t.net.Trace,
	}
}
