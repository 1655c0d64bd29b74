package telemetry

// Per-flow QoS scorecards. A ScoreSet tracks, for each registered flow
// (a traffic class keyed by an integer FlowID), how many units were sent, how many were delivered,
// the delivery-latency distribution in a fixed-memory Hist, and whether
// the flow's SLO currently holds. The per-event paths (Sent, Delivered)
// are slice indexing plus a Hist observe — allocation-free — so
// scorecards can ride the packet hot path of stress scenarios.

// FlowID is a stable integer handle to one flow, resolved once via
// ScoreSet.Flow and then used on the per-event path.
type FlowID int32

// SLO is a flow's service-level objective: the latency quantile that must
// stay at or under MaxLatency, and the minimum delivery ratio. A zero
// MaxLatency or MinDeliveryRatio disables that clause.
type SLO struct {
	Quantile         float64 // e.g. 0.95
	MaxLatency       float64 // seconds; 0 disables the latency clause
	MinDeliveryRatio float64 // delivered/sent; 0 disables the ratio clause
}

// Check evaluates the SLO against raw flow counters and a latency sink:
// the shared verdict logic behind Report's SLOPass and the scenario
// harness's per-flow assertions. A flow with nothing sent has delivery
// ratio 1 (vacuous pass), matching Report.
func (o SLO) Check(sent, delivered uint64, lat *Hist) bool {
	ratio := 1.0
	if sent > 0 {
		ratio = float64(delivered) / float64(sent)
	}
	if o.MinDeliveryRatio > 0 && ratio < o.MinDeliveryRatio {
		return false
	}
	if o.MaxLatency > 0 && lat.Quantile(o.Quantile) > o.MaxLatency {
		return false
	}
	return true
}

type flowStat struct {
	name      string
	slo       SLO
	sent      uint64
	delivered uint64
	lat       *Hist
}

// ScoreSet is a registry of flow scorecards.
type ScoreSet struct {
	idx   map[string]FlowID
	flows []flowStat
}

// NewScoreSet returns an empty scorecard registry.
func NewScoreSet() *ScoreSet {
	return &ScoreSet{idx: make(map[string]FlowID)}
}

// Flow resolves name to its FlowID, registering the flow with the given
// SLO on first use (later calls keep the original SLO).
func (s *ScoreSet) Flow(name string, slo SLO) FlowID {
	if f, ok := s.idx[name]; ok {
		return f
	}
	f := FlowID(len(s.flows))
	s.idx[name] = f
	s.flows = append(s.flows, flowStat{name: name, slo: slo, lat: NewHist()})
	return f
}

// Lookup resolves name to its FlowID without registering anything: the
// read-only twin of Flow for observers (mid-run status endpoints) that
// must not perturb registration order — registration order decides
// export byte order, so an observed run must register exactly what an
// unobserved run would.
func (s *ScoreSet) Lookup(name string) (FlowID, bool) {
	f, ok := s.idx[name]
	return f, ok
}

// NumFlows returns the number of registered flows.
func (s *ScoreSet) NumFlows() int { return len(s.flows) }

// Sent records one unit launched on flow f. 0 allocs/op.
//
//viator:noalloc
func (s *ScoreSet) Sent(f FlowID) { s.flows[f].sent++ }

// Delivered records one unit of flow f delivered after `latency`
// seconds. 0 allocs/op.
//
//viator:noalloc
func (s *ScoreSet) Delivered(f FlowID, latency float64) {
	fs := &s.flows[f]
	fs.delivered++
	fs.lat.Observe(latency)
}

// FlowReport is one flow's scorecard at a point in time.
type FlowReport struct {
	Name          string
	SLO           SLO
	Sent          uint64
	Delivered     uint64
	DeliveryRatio float64 // delivered/sent; 1 when nothing was sent
	P50, P95, P99 float64 // latency quantiles, seconds
	SLOPass       bool
}

// Report evaluates flow f's scorecard now: delivery ratio, p50/p95/p99
// latency and the SLO verdict. A flow with no traffic passes vacuously
// (ratio 1, zero quantiles).
func (s *ScoreSet) Report(f FlowID) FlowReport {
	fs := &s.flows[f]
	r := FlowReport{
		Name: fs.name, SLO: fs.slo,
		Sent: fs.sent, Delivered: fs.delivered,
		DeliveryRatio: 1,
		P50:           fs.lat.Quantile(0.50),
		P95:           fs.lat.Quantile(0.95),
		P99:           fs.lat.Quantile(0.99),
	}
	if fs.sent > 0 {
		r.DeliveryRatio = float64(fs.delivered) / float64(fs.sent)
	}
	r.SLOPass = fs.slo.Check(fs.sent, fs.delivered, fs.lat)
	return r
}

// Reports evaluates every flow in registration order.
func (s *ScoreSet) Reports() []FlowReport {
	out := make([]FlowReport, len(s.flows))
	for i := range s.flows {
		out[i] = s.Report(FlowID(i))
	}
	return out
}

// Latency returns flow f's latency histogram (the live sink, not a copy).
func (s *ScoreSet) Latency(f FlowID) *Hist { return s.flows[f].lat }

// MergeFrom folds o's flows into s by name: counts add, latency
// histograms merge exactly, unknown flows are registered with o's SLO.
// Merging per-replicate score sets in replicate order yields the same
// integer state for any worker count (see the package determinism note).
func (s *ScoreSet) MergeFrom(o *ScoreSet) {
	for i := range o.flows {
		of := &o.flows[i]
		f := s.Flow(of.name, of.slo)
		fs := &s.flows[f]
		fs.sent += of.sent
		fs.delivered += of.delivered
		fs.lat.Merge(of.lat)
	}
}
