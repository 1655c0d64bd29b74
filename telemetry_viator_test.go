package viator

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"viator/internal/roles"
	"viator/internal/shuttle"
	"viator/internal/telemetry"
)

// smallTelemetryNetwork runs a 24-ship network with telemetry armed and
// steady background traffic — the cheap stand-in the harness determinism
// tests replicate instead of a full stress scenario.
func smallTelemetryNetwork(seed uint64) (*Network, *Telemetry) {
	cfg := DefaultConfig(24, seed)
	n := NewNetwork(cfg)
	tel := n.EnableTelemetry(TelemetryConfig{
		Tick: 0.5,
		SLO:  telemetry.SLO{Quantile: 0.95, MaxLatency: 1, MinDeliveryRatio: 0.1},
	})
	n.InjectJet(0, roles.Caching, 2)
	n.StartPulses(1.0)
	rng := n.K.Rand.Split()
	n.K.Every(0.05, func() {
		src, dst := rng.Intn(24), rng.Intn(24)
		if src != dst {
			n.SendShuttle(n.NewShuttle(shuttle.Data, src, dst), "")
		}
	})
	n.Run(10)
	n.StopPulses()
	tel.Stop()
	return n, tel
}

func TestEnableTelemetrySinksAndScorecard(t *testing.T) {
	n, tel := smallTelemetryNetwork(42)
	if tel.Latency.Count() == 0 {
		t.Fatal("latency hist saw no deliveries")
	}
	if n.Net.Latency.N() != 0 {
		t.Fatalf("Summary sink still grew (%d samples) with telemetry enabled", n.Net.Latency.N())
	}
	if tel.QueueDepth.Count() == 0 {
		t.Fatal("queue-depth hist saw no enqueues")
	}
	samples := 0
	if tel.Rec.NumSeries() > 0 {
		tel.Rec.EachSample(0, func(float64, float64) { samples++ })
	}
	if samples == 0 {
		t.Fatal("recorder never ticked")
	}
	rep := tel.Report("")
	if rep.Sent == 0 || rep.Delivered == 0 {
		t.Fatalf("scorecard empty: %+v", rep)
	}
	if rep.Delivered > rep.Sent {
		t.Fatalf("delivered %d > sent %d", rep.Delivered, rep.Sent)
	}
	if !(rep.P50 <= rep.P95 && rep.P95 <= rep.P99) {
		t.Fatalf("quantiles not monotone: %v %v %v", rep.P50, rep.P95, rep.P99)
	}
	// The jet's replicas ride the same "" overlay, so the network-level
	// packet deliveries must cover the scorecard's.
	if uint64(tel.Latency.Count()) < rep.Delivered {
		t.Fatalf("latency hist count %d < scorecard delivered %d", tel.Latency.Count(), rep.Delivered)
	}
}

// TestTelemetryDoesNotPerturbTheRun is the determinism contract: a run
// with the full telemetry stack armed must produce exactly the same
// simulation outcomes (deliveries, losses, final clock) as the same seed
// without telemetry — observation only, no steering.
func TestTelemetryDoesNotPerturbTheRun(t *testing.T) {
	run := func(withTel bool) (uint64, uint64, float64) {
		cfg := DefaultConfig(24, 42)
		n := NewNetwork(cfg)
		if withTel {
			n.EnableTelemetry(TelemetryConfig{Tick: 0.25, SLO: telemetry.SLO{}})
		}
		n.InjectJet(0, roles.Caching, 2)
		n.StartPulses(1.0)
		rng := n.K.Rand.Split()
		n.K.Every(0.05, func() {
			src, dst := rng.Intn(24), rng.Intn(24)
			if src != dst {
				n.SendShuttle(n.NewShuttle(shuttle.Data, src, dst), "")
			}
		})
		n.Run(10)
		n.StopPulses()
		return n.DeliveredShuttles, n.LostShuttles, n.Now()
	}
	d0, l0, t0 := run(false)
	d1, l1, t1 := run(true)
	if d0 != d1 || l0 != l1 || t0 != t1 {
		t.Fatalf("telemetry perturbed the run: without=(%d,%d,%v) with=(%d,%d,%v)", d0, l0, t0, d1, l1, t1)
	}
}

func TestS1TableHasQoSColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("full S1 run in -short mode")
	}
	res := scenarioS1.Run(42)
	tb := res.Table()
	headers := tb.Headers()
	want := []string{"p50 (ms)", "p95 (ms)", "p99 (ms)", "SLO ok"}
	if len(headers) < len(want) {
		t.Fatalf("headers: %v", headers)
	}
	for i, h := range want {
		if headers[len(headers)-len(want)+i] != h {
			t.Fatalf("missing QoS column %q in %v", h, headers)
		}
	}
	for r := 0; r < tb.NumRows(); r++ {
		p50, _ := strconv.ParseFloat(tb.Cell(r, len(headers)-4), 64)
		p95, _ := strconv.ParseFloat(tb.Cell(r, len(headers)-3), 64)
		p99, _ := strconv.ParseFloat(tb.Cell(r, len(headers)-2), 64)
		slo, err := strconv.ParseFloat(tb.Cell(r, len(headers)-1), 64)
		if err != nil {
			t.Fatalf("SLO cell not numeric: %v", err)
		}
		if !(p50 > 0 && p50 <= p95 && p95 <= p99) {
			t.Fatalf("row %d quantiles implausible: %v %v %v", r, p50, p95, p99)
		}
		if slo != 0 && slo != 1 {
			t.Fatalf("SLO cell = %v, want 0 or 1", slo)
		}
	}
	if res.Dump == nil || res.Dump.QoS == nil || len(res.Dump.Hists) != 2 {
		t.Fatalf("S1 dump incomplete: %+v", res.Dump)
	}
}

// telemetryTestRegistry builds a registry with one cheap synthetic
// telemetry-capable experiment, so harness-level determinism is testable
// without paying for full stress-scenario runs.
func telemetryTestRegistry() *Registry {
	r := NewRegistry()
	r.Register(Experiment{
		ID: "TX1", Title: "synthetic telemetry probe", Stress: true,
		Run: func(seed uint64) *Table {
			_, tel := smallTelemetryNetwork(seed)
			tb := NewTable("tx1", "delivered")
			tb.AddRow(float64(tel.Report("").Delivered))
			return tb
		},
		Telemetry: func(seed uint64) *telemetry.Dump {
			_, tel := smallTelemetryNetwork(seed)
			return tel.Dump()
		},
	})
	return r
}

// renderTelemetry materializes CollectTelemetry output as the exact bytes
// `viatorbench -telemetry` would write.
func renderTelemetry(t *testing.T, reg *Registry, workers int) []byte {
	t.Helper()
	results, err := reg.CollectTelemetry(nil, 4, 42, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tr := range results {
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := WritePromSnapshot(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCollectTelemetryByteIdenticalAcrossWorkers pins the export
// pipeline's determinism contract: per-replicate seeds derive before any
// scheduling and dumps merge in replicate order, so the emitted bytes
// cannot depend on the worker count.
func TestCollectTelemetryByteIdenticalAcrossWorkers(t *testing.T) {
	reg := telemetryTestRegistry()
	a := renderTelemetry(t, reg, 1)
	b := renderTelemetry(t, reg, 4)
	c := renderTelemetry(t, reg, 3)
	if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
		t.Fatal("telemetry export bytes differ across -workers counts")
	}
	if len(a) == 0 {
		t.Fatal("telemetry export was empty")
	}
}

// TestCollectTelemetrySeedsMatchRunReplicated pins the seed-stream
// contract: replicate i of an experiment sees the same seed whether the
// harness collects tables or telemetry.
func TestCollectTelemetrySeedsMatchRunReplicated(t *testing.T) {
	reg := telemetryTestRegistry()
	tel, err := reg.CollectTelemetry([]string{"TX1"}, 3, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := reg.RunReplicated([]string{"TX1"}, 3, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tel[0].Seeds) != fmt.Sprint(tabs[0].Seeds) {
		t.Fatalf("seed streams diverge: telemetry %v vs tables %v", tel[0].Seeds, tabs[0].Seeds)
	}
}

func TestCollectTelemetryRejectsIncapableSelection(t *testing.T) {
	if _, err := DefaultRegistry().CollectTelemetry([]string{"E1"}, 1, 42, 1); err == nil {
		t.Fatal("selecting only telemetry-incapable experiments should error")
	}
}

// TestCollectTelemetryMergePoolsReplicates: the merged dump's histogram
// must hold exactly the union of the per-replicate observation counts.
func TestCollectTelemetryMergePoolsReplicates(t *testing.T) {
	reg := telemetryTestRegistry()
	results, err := reg.CollectTelemetry(nil, 3, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := results[0]
	var want uint64
	for _, d := range tr.Dumps {
		want += d.Hists[0].H.Count()
	}
	if got := tr.Merged.Hists[0].H.Count(); got != want {
		t.Fatalf("merged hist count %d, per-replicate sum %d", got, want)
	}
}

// TestWritePromSnapshotTypesEveryFamily pins the exposition-format rules
// for a multi-experiment snapshot: every family, flow families included,
// has exactly one # TYPE line, written before its samples, and each
// family's samples from both experiments are consecutive.
func TestWritePromSnapshotTypesEveryFamily(t *testing.T) {
	mk := func(id string, lat float64) *TelemetryResult {
		h := telemetry.NewHist()
		h.Observe(lat)
		qos := telemetry.NewScoreSet()
		f := qos.Flow("data", telemetry.SLO{})
		qos.Sent(f)
		qos.Delivered(f, lat)
		return &TelemetryResult{ID: id, Merged: &telemetry.Dump{
			Hists: []telemetry.NamedHist{{Name: "latency", H: h}}, QoS: qos}}
	}
	var buf bytes.Buffer
	if err := WritePromSnapshot(&buf, []*TelemetryResult{mk("S1", 0.1), mk("S2", 0.2)}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	types := map[string]int{}
	closed := map[string]bool{}
	current := ""
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types[strings.Fields(rest)[0]]++
			continue
		}
		fam := line[:strings.IndexAny(line, "{ ")]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(fam, suf); types[base] > 0 {
				fam = base
			}
		}
		if types[fam] == 0 {
			t.Fatalf("family %s has no # TYPE before its samples:\n%s", fam, out)
		}
		if fam != current {
			if closed[fam] {
				t.Fatalf("family %s samples not consecutive:\n%s", fam, out)
			}
			closed[current] = true
			current = fam
		}
	}
	for _, fam := range []string{"viator_latency", "viator_flow_sent_total", "viator_flow_delivered_total",
		"viator_flow_delivery_ratio", "viator_flow_latency_seconds", "viator_flow_slo_pass"} {
		if types[fam] != 1 {
			t.Errorf("family %s has %d # TYPE lines, want 1", fam, types[fam])
		}
	}
	for _, want := range []string{`exp="S1"`, `exp="S2"`} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %s samples", want)
		}
	}
}
