package serve

import (
	"io"
	"testing"

	"viator"
	"viator/internal/sim"
	"viator/internal/telemetry"
)

// benchSpec is the scenario behind BenchmarkServeSnapshot: the same
// feature-dense smoke shape the package tests use (churn, healing, two
// overlays, telemetry tick), scaled up enough that a snapshot carries
// realistic flow and series counts.
const benchSpec = `{
  "name": "bench",
  "title": "bench: snapshot publication probe",
  "ships": 64,
  "horizon": 8.0,
  "row_every": 1.0,
  "arena": {"kind": "static", "side": 300.0, "radius": 95.0},
  "pulse_period": 1.0,
  "heal_period": 1.0,
  "telemetry_tick": 0.5,
  "slo": {"quantile": 0.95, "max_latency": 0.100, "min_delivery_ratio": 0.30},
  "churn": {"period": 0.5},
  "traffic": [
    {"kind": "uniform", "period": 0.05},
    {"kind": "cbr", "rate": 8, "src": 3, "dst": 17, "overlay": "stream"}
  ]
}
`

// BenchmarkServeSnapshot times the driver's per-barrier publication on a
// resident run advanced to mid-horizon: read run state, render status +
// Prometheus families + stream lines, store the snapshot, broadcast.
// This is the entire observability cost a resident run pays per
// telemetry tick; the sim hot path between barriers carries none of it.
func BenchmarkServeSnapshot(b *testing.B) {
	b.ReportAllocs()
	sc, err := viator.ParseScenario([]byte(benchSpec))
	if err != nil {
		b.Fatalf("benchSpec: %v", err)
	}
	h := viator.StartScenario(sc, 42)
	h.StepTo(sc.Spec.Horizon / 2)
	s := New(Config{})
	r := &Run{id: "r1", name: "bench", title: sc.Spec.Title, seed: 42,
		ctrl: make(chan ctrlOp, 8), done: make(chan struct{})}
	em := &emitter{tags: `"run":"r1"`}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.publish(r, h, StateRunning, em)
	}
}

// benchDump builds a telemetry dump the size a resident stress run
// publishes: a filled recorder (12 series with windowed rollups), two
// well-populated latency histograms and a scored flow set.
func benchDump() *telemetry.Dump {
	rec := telemetry.NewRecorder(256, 4)
	cum := 0.0
	for s := 0; s < 12; s++ {
		s := s
		if s%2 == 0 {
			rec.CounterFn("counter", func() float64 { return cum * float64(s+1) })
		} else {
			rec.Gauge("gauge", func() float64 { return cum - float64(s) })
		}
	}
	now := 0.0
	for i := 0; i < 512; i++ {
		cum++
		now += 0.5
		rec.Tick(now)
	}

	rng := sim.NewRNG(1)
	lat, q := telemetry.NewHist(), telemetry.NewHist()
	for i := 0; i < 100_000; i++ {
		lat.Observe(rng.Exp(0.01))
		q.Observe(float64(rng.Intn(64)))
	}

	qos := telemetry.NewScoreSet()
	for _, name := range []string{"default", "stream", "bulk"} {
		f := qos.Flow(name, telemetry.SLO{Quantile: 0.95, MaxLatency: 0.05, MinDeliveryRatio: 0.5})
		for i := 0; i < 10_000; i++ {
			qos.Sent(f)
			qos.Delivered(f, rng.Exp(0.01))
		}
	}

	return &telemetry.Dump{
		Rec: rec,
		Hists: []telemetry.NamedHist{
			{Name: "delivery_latency", H: lat},
			{Name: "queue_depth", H: q},
		},
		QoS: qos,
	}
}

// BenchmarkMetricsRender times one run's share of a /metrics scrape at
// the published-snapshot seam: rendering the dump into Prometheus family
// chunks (what the driver pays per barrier) plus stitching and writing
// them (what the handler pays per scrape).
func BenchmarkMetricsRender(b *testing.B) {
	b.ReportAllocs()
	d := benchDump()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fams := telemetry.PromFamilies(d, `run="r1",scenario="s1"`)
		if err := telemetry.WritePromFamilies(io.Discard, fams); err != nil {
			b.Fatal(err)
		}
	}
}
