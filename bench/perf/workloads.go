package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"viator"
	"viator/bench"
	"viator/internal/scenario"
)

// The batch workloads. Each operation is one scenario run at seed
// base+i, driven the way a live observer drives it: StartScenario, then
// StepTo in 0.1-sim-second slices, then Finish. Stepping replays the batch
// run byte for byte (viator's TestLiveRunMatchesBatch), so the output
// digest of a stepped run must equal the stored digest of sc.Run(seed).

// stepSlice is the sim time one timed StepTo call advances.
const stepSlice = 0.1

// s1Workload runs S1, the most-used scenario (1000 mobile ships). Lazy
// per-source SPT rebuilds (topo) are ~80% of its CPU, so a routing change
// shows here.
func s1Workload() *Workload {
	return &Workload{
		Name:    "s1-metropolis",
		digests: "s1-metropolis",
		run: func(m *meter) error {
			sc, _ := viator.BuiltinScenario("s1")
			return runScenario(m, sc)
		},
	}
}

// s2Workload runs S2: 10k mobile ships, a graph and fleet far larger than
// cache. It is the set-up, memory and GC workload.
func s2Workload() *Workload {
	return &Workload{
		Name:    "s2-megalopolis",
		Large:   true,
		digests: "s2-megalopolis",
		run: func(m *meter) error {
			sc, _ := viator.BuiltinScenario("s2")
			return runScenario(m, sc)
		},
	}
}

// s3sShards is the kernel count the sharded workload runs at: the
// machine's two cores, one shard window per core.
const s3sShards = 2

// s3sWorkload runs S3S on two shard kernels: the only workload on
// sim.ShardGroup windows, trunks and mailboxes, so it shows whether
// parallel execution holds up.
func s3sWorkload() *Workload {
	return &Workload{
		Name:    "s3s-sharded",
		Large:   true,
		digests: "s3s-sharded",
		run: func(m *meter) error {
			viator.SetShardOverride(s3sShards)
			defer viator.SetShardOverride(0)
			sc, _ := viator.BuiltinScenario("s3s")
			return runScenario(m, sc)
		},
	}
}

// transportWorkload runs bench/workloads/transport.json: 1000 ships in a
// static arena with Poisson traffic at 3000 shuttles/s and routing pulses
// every 30 sim-seconds. Routing tables stay warm, so the per-packet path
// (kernel, netsim, NextHop) carries the run rather than SPT rebuilds.
func transportWorkload() *Workload {
	return &Workload{
		Name:    "transport",
		digests: "transport",
		run: func(m *meter) error {
			sc, err := viator.ParseScenario(bench.TransportSpec)
			if err != nil {
				return fmt.Errorf("transport spec: %w", err)
			}
			return runScenario(m, sc)
		},
	}
}

// runScenario runs operations of sc until the meter stops it.
func runScenario(m *meter, sc *viator.Scenario) error {
	spec, err := sc.Spec.Marshal()
	if err != nil {
		return fmt.Errorf("marshal spec: %w", err)
	}
	for i := 0; m.more(i); i++ {
		if err := m.startOp(); err != nil {
			return err
		}
		seed := m.seed(i)
		run := "seed-" + strconv.FormatUint(seed, 10)
		op := m.tr.begin("bench.op", 0, run)
		if m.tr != nil {
			// Builtin specs compile once at init; the traced run times a
			// fresh compile of the same spec so the cost is visible.
			sp := m.tr.begin("scenario.compile", op, run)
			_, err := viator.ParseScenario(spec)
			m.tr.end(sp)
			if err != nil {
				return fmt.Errorf("compile spec: %w", err)
			}
		}

		sp := m.tr.begin("scenario.start", op, run)
		t0 := time.Now()
		h := viator.StartScenario(sc, seed)
		t1 := time.Now()
		m.tr.end(sp)
		m.setup = append(m.setup, t1.Sub(t0).Seconds())

		m.busy.start()
		for k := 1; !h.Done(); k++ {
			sp := m.tr.begin("scenario.step", op, run)
			s := time.Now()
			h.StepTo(float64(k) * stepSlice)
			m.step(time.Since(s))
			m.tr.end(sp)
		}
		m.busy.stop()
		sp = m.tr.begin("scenario.finish", op, run)
		res := h.Finish()
		m.run = append(m.run, time.Since(t1).Seconds())
		m.tr.end(sp)
		if err := m.endOp(); err != nil {
			return err
		}

		if m.tr != nil && res.Dump != nil {
			sp := m.tr.begin("telemetry.export", op, run)
			err := res.Dump.WriteJSONL(io.Discard, "")
			if err == nil {
				err = res.Dump.WriteProm(io.Discard, "")
			}
			m.tr.end(sp)
			if err != nil {
				return fmt.Errorf("export telemetry: %w", err)
			}
		}
		if i == 0 {
			scenarioCounts(m.layer, res)
		}
		m.verify(seed, scenarioDigest(res), checkScenario(sc, res))
		m.tr.end(op)
	}
	return nil
}

// checkScenario applies the registry's row-count check and requires every
// assertion of the spec to hold.
func checkScenario(sc *viator.Scenario, res *viator.ScenarioResult) error {
	if got, want := res.Table().NumRows(), sc.Spec.NumRows(); got != want {
		return fmt.Errorf("%d table rows, want %d", got, want)
	}
	for _, v := range res.Verdicts {
		if !v.Pass {
			return fmt.Errorf("assertion %s failed: %s", v.Name, v.Detail)
		}
	}
	return nil
}

// scenarioDigest is the SHA-256 of a run's rendered table followed by its
// verdicts, one per line.
func scenarioDigest(res *viator.ScenarioResult) string {
	return tableDigest(res.Table().String(), res.Verdicts)
}

// tableDigest hashes a table rendering and its verdicts; a served run's
// result carries the same two fields, so observed and batch runs digest
// alike.
func tableDigest(table string, verdicts []scenario.Verdict) string {
	h := sha256.New()
	io.WriteString(h, table)
	for _, v := range verdicts {
		fmt.Fprintf(h, "%s\t%t\t%s\n", v.Name, v.Pass, v.Detail)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scenarioCounts records a run's deterministic counts: fleet outcomes
// from the final checkpoint row, transport counters summed over the
// telemetry recorder's per-tick series.
func scenarioCounts(c map[string]float64, res *viator.ScenarioResult) {
	if n := len(res.Rows); n > 0 {
		last := res.Rows[n-1]
		c["viator.shuttles_delivered"] = float64(last.Delivered)
		c["viator.shuttles_lost"] = float64(last.Lost)
		c["viator.repairs"] = float64(last.Repairs)
		c["mobility.partitions"] = float64(last.Partitions)
	}
	d := res.Dump
	if d == nil {
		return
	}
	series := map[string]string{
		"router.pulse_gate_hits": "routing.pulse_gate_hits",
		"packets.delivered":      "netsim.packets_delivered",
		"packets.dropped":        "netsim.packets_dropped",
	}
	if d.Rec != nil {
		for si := 0; si < d.Rec.NumSeries(); si++ {
			if name, ok := series[d.Rec.SeriesName(si)]; ok {
				sum := 0.0
				d.Rec.EachSample(si, func(_, v float64) { sum += v })
				c[name] = sum
			}
		}
	}
	for _, nh := range d.Hists {
		if nh.Name == "queue_depth_bytes" {
			c["netsim.enqueues"] = float64(nh.H.Count())
		}
	}
}

// Paper catalog: each operation is one E1–E12 sweep at base seed base+i,
// replicated the way `viatorbench -reps 8 -workers 2` replicates it.
const (
	paperReps    = 8
	paperWorkers = 2
	// paperFleet is the fleet size the catalog's experiments build their
	// networks at (E1's generation ladder, the A-sweeps).
	paperFleet = 64
)

// paperWorkload sweeps the paper reproduction itself. Allocation, GC and
// model checking dominate and routing is ~2%, so a routing change must
// show no move here.
func paperWorkload() *Workload {
	return &Workload{
		Name:    "paper-catalog",
		digests: "paper-catalog",
		run:     runPaper,
	}
}

// paperIDs are the paper experiments the catalog workload sweeps.
func paperIDs(reg *viator.Registry) []string {
	var ids []string
	for _, e := range reg.Paper() {
		ids = append(ids, e.ID)
	}
	return ids
}

// runPaper runs catalog sweeps. RunReplicated arms and runs an experiment
// inside one call, so its set-up is not separable; setup_s times instead
// the network construction every catalog experiment starts from. The
// sweep calls RunReplicated once per experiment — the same seeds and
// tables as one call over all IDs, because replicate seeds are derived
// per experiment — so each experiment gets its own span and step sample.
func runPaper(m *meter) error {
	reg := viator.DefaultRegistry()
	ids := paperIDs(reg)
	for i := 0; m.more(i); i++ {
		if err := m.startOp(); err != nil {
			return err
		}
		seed := m.seed(i)
		run := "seed-" + strconv.FormatUint(seed, 10)
		op := m.tr.begin("bench.op", 0, run)

		sp := m.tr.begin("viator.new_network", op, run)
		t0 := time.Now()
		viator.NewNetwork(viator.DefaultConfig(paperFleet, seed))
		t1 := time.Now()
		m.tr.end(sp)
		m.setup = append(m.setup, t1.Sub(t0).Seconds())

		var (
			all []*viator.Replicated
			err error
		)
		m.busy.start()
		for _, id := range ids {
			sp := m.tr.begin("harness."+id, op, run)
			s := time.Now()
			reps, e := reg.RunReplicated([]string{id}, paperReps, seed, paperWorkers)
			m.step(time.Since(s))
			m.tr.end(sp)
			if e != nil && err == nil {
				err = e
			}
			all = append(all, reps...)
		}
		m.busy.stop()
		m.run = append(m.run, time.Since(t1).Seconds())
		m.tr.end(op)
		if err := m.endOp(); err != nil {
			return err
		}

		doc, jerr := json.Marshal(all)
		if err == nil {
			err = jerr
		}
		m.verify(seed, paperDigest(doc), err)
	}
	return nil
}

// paperDigest is the SHA-256 of a sweep's replicated JSON document.
func paperDigest(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}
