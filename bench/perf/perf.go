// Package perf is the viatorperf benchmark: workloads that drive the
// simulator only through its public calls, time each call from outside,
// check every output, and report end-to-end metrics (untraced) or
// per-layer metrics (traced, with spans, a CPU profile and Go runtime
// readings).
package perf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// Options configures one workload run.
type Options struct {
	// Seed is the base seed: operation i uses Seed+i.
	Seed uint64
	// Seconds is how long the run measures. Operations start while time
	// remains, so the last one may end after it.
	Seconds float64
	// MaxOps caps the operations per measured phase (0 = no cap); the
	// smoke test runs one.
	MaxOps int
	// Trace selects the traced run: per-layer metrics instead of
	// end-to-end ones.
	Trace bool
	// TraceDir receives spans.jsonl and cpu.pprof of a traced run.
	TraceDir string
	// Digests maps a workload's digest table to the known output digest
	// per seed (see StoredDigests).
	Digests map[string]map[uint64]string
	// Log receives progress and diagnostic lines (nil discards them).
	Log io.Writer
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object the benchmark prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// MetricDef declares a metric's name and unit.
type MetricDef struct {
	Name, Unit string
}

// EndToEnd are the metrics an untraced run reports on every workload.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"step_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// PerLayer are the metrics a traced run reports on every workload (0 where
// a layer is not exercised).
var PerLayer = perLayerDefs()

func perLayerDefs() []MetricDef {
	var defs []MetricDef
	for _, l := range Layers {
		defs = append(defs, MetricDef{l + ".self_frac", "ratio"})
	}
	defs = append(defs,
		MetricDef{"routing.pulse_gate_hits", "count"},
		MetricDef{"netsim.packets_delivered", "count"},
		MetricDef{"netsim.packets_dropped", "count"},
		MetricDef{"netsim.enqueues", "count"},
		MetricDef{"sim.cpu_util", "ratio"},
		MetricDef{"mobility.partitions", "count"},
		MetricDef{"scenario.compile_s", "s"},
		MetricDef{"scenario.start_s", "s"},
		MetricDef{"scenario.finish_s", "s"},
		MetricDef{"runtime.gc_cpu_frac", "ratio"},
		MetricDef{"runtime.gc_cycles", "count"},
		MetricDef{"runtime.alloc_mb", "MB"},
	)
	for i := 1; i <= 12; i++ {
		defs = append(defs, MetricDef{fmt.Sprintf("harness.E%d_s", i), "s"})
	}
	defs = append(defs,
		MetricDef{"telemetry.export_s", "s"},
		MetricDef{"serve.scrape_p50_ms", "ms"},
		MetricDef{"serve.scrape_p99_ms", "ms"},
		MetricDef{"serve.scrape_bytes", "bytes"},
		MetricDef{"serve.stream_lines", "count"},
		MetricDef{"serve.stream_loss_frac", "ratio"},
		MetricDef{"viator.shuttles_delivered", "count"},
		MetricDef{"viator.shuttles_lost", "count"},
		MetricDef{"viator.repairs", "count"},
		MetricDef{"bench.trace_overhead_frac", "ratio"},
		MetricDef{"bench.gen_late_p99_ms", "ms"},
		MetricDef{"bench.profile_samples", "count"},
	)
	return defs
}

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	// Large workloads are skipped by the smoke test under -short.
	Large bool
	// digests names the digests.json table the outputs are checked
	// against (workloads running the same scenario share one).
	digests string
	// run performs operations while m.more allows, recording timings and
	// outcomes on m. It returns an error only when the workload cannot
	// run at all.
	run func(m *meter) error
}

// Workloads returns every workload in report order.
func Workloads() []*Workload {
	return []*Workload{
		s1Workload(), s2Workload(), s3sWorkload(), transportWorkload(),
		paperWorkload(), serveWorkload(),
	}
}

// Lookup finds a workload by name.
func Lookup(name string) (*Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// meter is one measured phase of a workload run: the operation budget,
// the tracer (nil when untraced) and everything the operations record.
type meter struct {
	w        *Workload
	opts     Options
	deadline time.Time
	maxOps   int
	tr       *tracer

	setup, run []float64 // seconds per operation
	steps      []float64 // milliseconds per step
	// rss is each operation's own resident peak (MiB), for workloads
	// whose operations run in the benchmark's process one at a time.
	rss  []float64
	busy busyMeter

	attempted, failed int
	known             map[uint64]string
	checked           int
	digests           []string

	// layer holds per-layer values a workload records itself, such as the
	// deterministic counts of its first operation.
	layer map[string]float64
}

func newMeter(w *Workload, opts Options, seconds float64, maxOps int, tr *tracer) *meter {
	return &meter{
		w: w, opts: opts, maxOps: maxOps, tr: tr,
		deadline: time.Now().Add(time.Duration(seconds * float64(time.Second))),
		known:    opts.Digests[w.digests],
		layer:    map[string]float64{},
	}
}

// more reports whether operation i should start: the first always does,
// later ones while time and the operation cap allow.
func (m *meter) more(i int) bool {
	if m.maxOps > 0 && i >= m.maxOps {
		return false
	}
	return i == 0 || time.Now().Before(m.deadline)
}

// step records one step time.
func (m *meter) step(d time.Duration) {
	m.steps = append(m.steps, float64(d)/float64(time.Millisecond))
}

// startOp gives the next operation a clean process: the garbage earlier
// operations left is collected and returned to the OS, so no operation
// pays for another's, and the resident high-water mark is reset so that
// endOp reads the operation's own peak.
func (m *meter) startOp() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// endOp records the operation's resident peak.
func (m *meter) endOp() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.rss = append(m.rss, mb)
	return nil
}

// seed is operation i's seed.
func (m *meter) seed(i int) uint64 { return m.opts.Seed + uint64(i) }

func (m *meter) logf(format string, args ...any) {
	if m.opts.Log != nil {
		fmt.Fprintf(m.opts.Log, "viatorperf: %s: "+format+"\n", append([]any{m.w.Name}, args...)...)
	}
}

// verify records one operation: its output digest is checked against the
// stored one for its seed, if any, and err (a failed verdict, check or
// request) marks it failed.
func (m *meter) verify(seed uint64, digest string, err error) {
	m.attempted++
	m.digests = append(m.digests, digest)
	if want, ok := m.known[seed]; ok && err == nil {
		m.checked++
		if digest != want {
			err = fmt.Errorf("output digest %s, want %s", digest, want)
		}
	}
	if err != nil {
		m.failed++
		m.logf("seed %d failed: %v", seed, err)
	}
}

// fail records one failed operation that has no output to digest.
func (m *meter) fail(what string, err error) {
	m.attempted++
	m.failed++
	m.logf("%s failed: %v", what, err)
}

// combinedDigest hashes the per-operation digests in order, so two
// commits run at the same seed and length can be compared even where no
// digest is stored.
func (m *meter) combinedDigest() string {
	h := sha256.New()
	for _, d := range m.digests {
		io.WriteString(h, d)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (m *meter) report() {
	m.logf("%d operations from seed %d, %d checked against stored digests, %d failed, combined digest %s",
		len(m.digests), m.opts.Seed, m.checked, m.failed, m.combinedDigest())
}

// Run runs workload w and returns its result.
func Run(w *Workload, opts Options) (*Result, error) {
	if !opts.Trace {
		m := newMeter(w, opts, opts.Seconds, opts.MaxOps, nil)
		if err := w.run(m); err != nil {
			return nil, err
		}
		m.report()
		rss := Median(m.rss)
		if len(m.rss) == 0 {
			var err error
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
		return result(m.attempted, m.failed, EndToEnd, map[string]float64{
			"setup_s":      Median(m.setup),
			"run_s":        Median(m.run),
			"step_tail_ms": TailMean(m.steps, 0.05),
			"peak_rss_mb":  rss,
		}), nil
	}

	// The traced run measures its own overhead: the first half runs
	// untraced, the second replays the same seeds with spans and the CPU
	// profiler on, and the per-layer numbers come from the second half.
	a := newMeter(w, opts, opts.Seconds/2, opts.MaxOps, nil)
	if err := w.run(a); err != nil {
		return nil, err
	}
	b := newMeter(w, opts, opts.Seconds/2, len(a.run), newTracer())
	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	err := w.run(b)
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	if err != nil {
		return nil, err
	}
	b.report()

	vals, err := layerMetrics(a, b, prof.Bytes(), rt0, rt1)
	if err != nil {
		return nil, err
	}
	if opts.TraceDir != "" {
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			return nil, err
		}
		if err := b.tr.write(filepath.Join(opts.TraceDir, "spans.jsonl")); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		if err := os.WriteFile(filepath.Join(opts.TraceDir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("write profile: %w", err)
		}
	}
	return result(a.attempted+b.attempted, a.failed+b.failed, PerLayer, vals), nil
}

// result packages values for the declared metrics. JSON has no infinity:
// an infinite latency (a failed request's) prints as the largest float.
func result(attempted, failed int, defs []MetricDef, vals map[string]float64) *Result {
	r := &Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return r
}

// layerMetrics derives the per-layer metrics of traced phase b, with the
// untraced phase a (same seeds) as the overhead reference.
func layerMetrics(a, b *meter, profile []byte, rt0, rt1 runtimeReading) (map[string]float64, error) {
	vals := map[string]float64{}
	p, err := ParseProfile(profile)
	if err != nil {
		return nil, err
	}
	self, total, err := p.SelfByLayer("cpu")
	if err != nil {
		return nil, err
	}
	for _, l := range Layers {
		if total > 0 {
			vals[l+".self_frac"] = float64(self[l]) / float64(total)
		}
	}
	// Identical stacks share one profile sample; the "samples" column
	// counts how many ticks each stands for.
	_, samples, err := p.SelfByLayer("samples")
	if err != nil {
		return nil, err
	}
	vals["bench.profile_samples"] = float64(samples)

	for k, v := range b.layer {
		vals[k] = v
	}
	vals["sim.cpu_util"] = b.busy.util()
	for name, span := range map[string]string{
		"scenario.compile_s": "scenario.compile",
		"scenario.start_s":   "scenario.start",
		"scenario.finish_s":  "scenario.finish",
		"telemetry.export_s": "telemetry.export",
	} {
		vals[name] = Median(b.tr.durations(span))
	}
	for i := 1; i <= 12; i++ {
		vals[fmt.Sprintf("harness.E%d_s", i)] = Median(b.tr.durations(fmt.Sprintf("harness.E%d", i)))
	}
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		vals["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	vals["runtime.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	vals["runtime.alloc_mb"] = float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20)
	// b replays a prefix of a's seeds.
	if n := len(b.run); n > 0 {
		if ref := Median(a.run[:n]); ref > 0 {
			vals["bench.trace_overhead_frac"] = Median(b.run)/ref - 1
		}
	}
	return vals, nil
}
