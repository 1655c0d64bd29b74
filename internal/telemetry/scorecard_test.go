package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"viator/internal/allocpin"
)

func TestScoreSetBasics(t *testing.T) {
	s := NewScoreSet()
	slo := SLO{Quantile: 0.95, MaxLatency: 0.5, MinDeliveryRatio: 0.8}
	f := s.Flow("data", slo)
	if again := s.Flow("data", SLO{}); again != f {
		t.Fatalf("Flow not idempotent: %d vs %d", again, f)
	}
	if s.NumFlows() != 1 {
		t.Fatalf("NumFlows = %d", s.NumFlows())
	}
	for i := 0; i < 10; i++ {
		s.Sent(f)
	}
	for i := 0; i < 9; i++ {
		s.Delivered(f, 0.01*float64(i+1))
	}
	r := s.Report(f)
	if r.Sent != 10 || r.Delivered != 9 {
		t.Fatalf("sent/delivered = %d/%d", r.Sent, r.Delivered)
	}
	if r.DeliveryRatio != 0.9 {
		t.Fatalf("ratio = %v", r.DeliveryRatio)
	}
	if !(r.P50 <= r.P95 && r.P95 <= r.P99) {
		t.Fatalf("quantiles not monotone: %v %v %v", r.P50, r.P95, r.P99)
	}
	if !r.SLOPass {
		t.Fatalf("SLO should pass: %+v", r)
	}
}

func TestScoreSetSLOFailures(t *testing.T) {
	s := NewScoreSet()
	f := s.Flow("slow", SLO{Quantile: 0.95, MaxLatency: 0.1, MinDeliveryRatio: 0.5})
	for i := 0; i < 10; i++ {
		s.Sent(f)
		s.Delivered(f, 1.0) // all far over the latency bound
	}
	if r := s.Report(f); r.SLOPass {
		t.Fatalf("latency clause should fail: %+v", r)
	}

	g := s.Flow("lossy", SLO{Quantile: 0.95, MaxLatency: 10, MinDeliveryRatio: 0.9})
	for i := 0; i < 10; i++ {
		s.Sent(g)
	}
	s.Delivered(g, 0.01)
	if r := s.Report(g); r.SLOPass {
		t.Fatalf("delivery-ratio clause should fail: %+v", r)
	}
}

func TestScoreSetVacuousPass(t *testing.T) {
	s := NewScoreSet()
	f := s.Flow("idle", SLO{Quantile: 0.95, MaxLatency: 0.001, MinDeliveryRatio: 0.99})
	r := s.Report(f)
	if !r.SLOPass || r.DeliveryRatio != 1 {
		t.Fatalf("idle flow should pass vacuously: %+v", r)
	}
}

func TestScoreSetMerge(t *testing.T) {
	a, b := NewScoreSet(), NewScoreSet()
	slo := SLO{Quantile: 0.5, MaxLatency: 1}
	fa := a.Flow("data", slo)
	fb := b.Flow("data", slo)
	b.Flow("extra", SLO{})
	for i := 0; i < 5; i++ {
		a.Sent(fa)
		a.Delivered(fa, 0.1)
		b.Sent(fb)
		b.Delivered(fb, 0.3)
	}
	a.MergeFrom(b)
	if a.NumFlows() != 2 {
		t.Fatalf("merge did not register unknown flow: %d flows", a.NumFlows())
	}
	r := a.Report(fa)
	if r.Sent != 10 || r.Delivered != 10 {
		t.Fatalf("merged sent/delivered = %d/%d", r.Sent, r.Delivered)
	}
	if r.P50 < 0.099 || r.P50 > 0.302 {
		t.Fatalf("merged median %v outside the pooled stream's range", r.P50)
	}
}

func TestScoreSetHotPathAllocFree(t *testing.T) {
	s := NewScoreSet()
	f := s.Flow("data", SLO{})
	lat := 0.001
	allocpin.Zero(t, 1000, func() {
		s.Sent(f)
		s.Delivered(f, lat)
		lat *= 1.0001
	}, "(*ScoreSet).Sent", "(*ScoreSet).Delivered")
}

func TestDumpJSONLAndPromDeterministic(t *testing.T) {
	build := func() *Dump {
		rec := NewRecorder(8, 2)
		v := 0.0
		rec.Gauge("links", func() float64 { return v })
		for i := 1; i <= 4; i++ {
			v = float64(i * 3)
			rec.Tick(float64(i))
		}
		h := NewHist()
		for i := 0; i < 100; i++ {
			h.Observe(0.001 * float64(i+1))
		}
		qos := NewScoreSet()
		f := qos.Flow("data", SLO{Quantile: 0.95, MaxLatency: 1, MinDeliveryRatio: 0.5})
		for i := 0; i < 10; i++ {
			qos.Sent(f)
			qos.Delivered(f, 0.02)
		}
		return &Dump{Rec: rec, Hists: []NamedHist{{Name: "latency", H: h}}, QoS: qos}
	}
	var a, b, pa, pb bytes.Buffer
	if err := build().WriteJSONL(&a, `"exp":"X"`); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b, `"exp":"X"`); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical dumps rendered different JSONL bytes")
	}
	if err := build().WriteProm(&pa, `exp="X"`); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteProm(&pb, `exp="X"`); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Fatal("identical dumps rendered different Prometheus bytes")
	}
	for _, want := range []string{`"kind":"series"`, `"kind":"rollup"`, `"kind":"hist"`, `"kind":"flow"`, `"exp":"X"`} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("JSONL missing %s:\n%s", want, a.String())
		}
	}
	for _, want := range []string{"# TYPE viator_latency histogram", `le="+Inf"`, "viator_flow_slo_pass", "viator_series_last"} {
		if !strings.Contains(pa.String(), want) {
			t.Fatalf("Prometheus snapshot missing %s:\n%s", want, pa.String())
		}
	}
}

func TestMergeDumpsPoolsHistsAndFlows(t *testing.T) {
	mk := func(lat float64) *Dump {
		h := NewHist()
		h.Observe(lat)
		qos := NewScoreSet()
		f := qos.Flow("data", SLO{})
		qos.Sent(f)
		qos.Delivered(f, lat)
		return &Dump{Hists: []NamedHist{{Name: "latency", H: h}}, QoS: qos}
	}
	m := MergeDumps([]*Dump{mk(0.1), mk(0.2), nil, mk(0.3)})
	if len(m.Hists) != 1 || m.Hists[0].H.Count() != 3 {
		t.Fatalf("merged hists: %+v", m.Hists)
	}
	if m.Hists[0].H.Min() != 0.1 || m.Hists[0].H.Max() != 0.3 {
		t.Fatalf("merged tails %v/%v", m.Hists[0].H.Min(), m.Hists[0].H.Max())
	}
	r := m.QoS.Report(m.QoS.Flow("data", SLO{}))
	if r.Sent != 3 || r.Delivered != 3 {
		t.Fatalf("merged flow: %+v", r)
	}
}

func TestSLOCheck(t *testing.T) {
	lat := NewHist()
	for i := 0; i < 100; i++ {
		lat.Observe(0.010)
	}
	lat.Observe(10.0) // one outlier beyond p99

	cases := []struct {
		name            string
		slo             SLO
		sent, delivered uint64
		want            bool
	}{
		{"both clauses pass", SLO{0.95, 0.050, 0.80}, 100, 90, true},
		{"ratio fails", SLO{0.95, 0.050, 0.95}, 100, 90, false},
		{"latency fails", SLO{0.999, 0.050, 0.80}, 100, 90, false},
		{"zero slo is vacuous", SLO{}, 100, 0, true},
		{"nothing sent passes ratio", SLO{0.95, 0.050, 0.99}, 0, 0, true},
		{"latency-only clause", SLO{0.95, 0.050, 0}, 100, 0, true},
		{"ratio-only clause", SLO{0, 0, 0.5}, 100, 49, false},
	}
	for _, c := range cases {
		if got := c.slo.Check(c.sent, c.delivered, lat); got != c.want {
			t.Errorf("%s: Check(%d, %d) = %v, want %v", c.name, c.sent, c.delivered, got, c.want)
		}
	}
}

// TestSLOCheckMatchesReport: Report's SLOPass column is exactly
// SLO.Check over the same counters — the scenario assertion layer and
// the scorecard verdict can never disagree.
func TestSLOCheckMatchesReport(t *testing.T) {
	s := NewScoreSet()
	slo := SLO{Quantile: 0.95, MaxLatency: 0.5, MinDeliveryRatio: 0.8}
	id := s.Flow("data", slo)
	for i := 0; i < 10; i++ {
		s.Sent(id)
	}
	for i := 0; i < 9; i++ {
		s.Delivered(id, 0.010)
	}
	lat := NewHist()
	for i := 0; i < 9; i++ {
		lat.Observe(0.010)
	}
	if r := s.Report(id); r.SLOPass != slo.Check(10, 9, lat) || !r.SLOPass {
		t.Fatalf("Report SLOPass = %v, want the SLO.Check verdict (true)", r.SLOPass)
	}
	// Push the ratio below the floor: both verdicts must flip together.
	for i := 0; i < 40; i++ {
		s.Sent(id)
	}
	if r := s.Report(id); r.SLOPass != slo.Check(50, 9, lat) || r.SLOPass {
		t.Fatalf("Report SLOPass = %v, want the SLO.Check verdict (false)", r.SLOPass)
	}
}
