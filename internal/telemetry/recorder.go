package telemetry

// Recorder is a sim-time flight recorder: a registry of sampled series
// (counters and gauges) written into fixed-capacity columnar ring buffers
// on every Tick, with windowed min/mean/max rollups. It answers "what did
// the network look like over time" without retaining unbounded history —
// the rings overwrite their oldest samples, the rollups overwrite their
// oldest windows, and a steady-state Tick allocates nothing.
//
// Series are sampled through closures supplied at registration, so the
// recorder never holds references into simulation internals beyond what
// the caller chose to expose, and sampling is read-only by construction
// of those closures — a recorder tick must never perturb the simulation
// it observes (the determinism contract for scenarios that are compared
// byte-for-byte with recorder-free runs).
type Recorder struct {
	capacity int // samples retained per series
	window   int // ticks per rollup window

	ticks int       // total ticks ever recorded
	times []float64 // ring of tick times, parallel to every series' vals

	prep   []func() // run once per tick before any sampling
	series []series
}

// SeriesKind distinguishes how a registered sample stream is recorded.
type SeriesKind uint8

const (
	// Gauge records the sampled value as-is (a level: links up, alive
	// fraction, role census).
	Gauge SeriesKind = iota
	// Counter records the per-tick increase of a monotonically growing
	// sample (a rate: deliveries, drops, pulse-gate hits per tick).
	Counter
)

// String names the kind for export lines.
func (k SeriesKind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

type series struct {
	name   string
	kind   SeriesKind
	sample func() float64
	prev   float64 // Counter: last raw sample

	vals []float64 // ring, capacity == Recorder.capacity

	// Open rollup window accumulation.
	wMin, wMax, wSum float64
	wN               int

	// Rollup rings: one row per completed window.
	rolls int // total completed windows ever
	rT    []float64
	rMin  []float64
	rMean []float64
	rMax  []float64
}

// NewRecorder returns a recorder retaining `capacity` samples per series
// and folding every `window` consecutive ticks into one min/mean/max
// rollup row (also retained up to `capacity` rows). capacity and window
// must be positive.
func NewRecorder(capacity, window int) *Recorder {
	if capacity <= 0 || window <= 0 {
		panic("telemetry: recorder capacity and window must be positive")
	}
	return &Recorder{
		capacity: capacity,
		window:   window,
		times:    make([]float64, capacity),
	}
}

// BeforeTick registers a hook that runs once per Tick before any series
// is sampled — the place to compute a shared snapshot (e.g. one pass over
// the fleet for a role census) that several gauges then read.
func (r *Recorder) BeforeTick(fn func()) { r.prep = append(r.prep, fn) }

// Gauge registers a level series sampled from fn on every tick.
func (r *Recorder) Gauge(name string, fn func() float64) { r.register(name, Gauge, fn) }

// CounterFn registers a rate series: fn must return a monotonically
// non-decreasing cumulative value, and the recorded sample is its
// increase since the previous tick (the first tick records the increase
// from the value at registration time).
func (r *Recorder) CounterFn(name string, fn func() float64) { r.register(name, Counter, fn) }

func (r *Recorder) register(name string, kind SeriesKind, fn func() float64) {
	if r.ticks > 0 {
		panic("telemetry: register series before the first Tick")
	}
	s := series{
		name: name, kind: kind, sample: fn,
		vals:  make([]float64, r.capacity),
		rT:    make([]float64, r.capacity),
		rMin:  make([]float64, r.capacity),
		rMean: make([]float64, r.capacity),
		rMax:  make([]float64, r.capacity),
	}
	if kind == Counter {
		s.prev = fn()
	}
	r.series = append(r.series, s)
}

// Tick samples every registered series at sim time now. Steady-state cost
// is one closure call plus a few float ops per series and zero
// allocations: the rings were sized at registration and only overwrite.
//
//viator:noalloc
func (r *Recorder) Tick(now float64) {
	for _, fn := range r.prep {
		fn()
	}
	slot := r.ticks % r.capacity
	r.times[slot] = now
	for i := range r.series {
		s := &r.series[i]
		v := s.sample()
		if s.kind == Counter {
			v, s.prev = v-s.prev, v
		}
		s.vals[slot] = v
		if s.wN == 0 || v < s.wMin {
			s.wMin = v
		}
		if s.wN == 0 || v > s.wMax {
			s.wMax = v
		}
		s.wSum += v
		s.wN++
		if s.wN == r.window {
			rs := s.rolls % r.capacity
			s.rT[rs] = now
			s.rMin[rs] = s.wMin
			s.rMean[rs] = s.wSum / float64(s.wN)
			s.rMax[rs] = s.wMax
			s.rolls++
			s.wN, s.wSum = 0, 0
		}
	}
	r.ticks++
}

// NumSeries returns the number of registered series.
func (r *Recorder) NumSeries() int { return len(r.series) }

// retained returns how many of `total` ring rows are still present.
func (r *Recorder) retained(total int) int {
	if total > r.capacity {
		return r.capacity
	}
	return total
}

// EachSample calls f for every retained sample of series si, oldest
// first, with the tick time and recorded value.
func (r *Recorder) EachSample(si int, f func(t, v float64)) {
	s := &r.series[si]
	n := r.retained(r.ticks)
	start := r.ticks - n
	for k := 0; k < n; k++ {
		slot := (start + k) % r.capacity
		f(r.times[slot], s.vals[slot])
	}
}

// Rollup is one completed min/mean/max window of a series.
type Rollup struct {
	T    float64 // time of the window's last tick
	Min  float64
	Mean float64
	Max  float64
}

// EachRollup calls f for every retained rollup row of series si, oldest
// first.
func (r *Recorder) EachRollup(si int, f func(Rollup)) {
	s := &r.series[si]
	n := r.retained(s.rolls)
	start := s.rolls - n
	for k := 0; k < n; k++ {
		slot := (start + k) % r.capacity
		f(Rollup{T: s.rT[slot], Min: s.rMin[slot], Mean: s.rMean[slot], Max: s.rMax[slot]})
	}
}

// Rollups returns the total number of completed rollup windows of
// series si ever produced (including rows since evicted from the ring).
// Together with EachRollup's oldest-first order it gives incremental
// consumers — the live stream emits only windows completed since its
// cursor — a monotone position to diff against.
func (r *Recorder) Rollups(si int) int { return r.series[si].rolls }

// SeriesName returns the name of series si.
func (r *Recorder) SeriesName(si int) string { return r.series[si].name }

// SeriesKind returns the kind of series si.
func (r *Recorder) SeriesKind(si int) SeriesKind { return r.series[si].kind }

// Last returns the most recent sample of series si, 0 before any tick.
func (r *Recorder) Last(si int) float64 {
	if r.ticks == 0 {
		return 0
	}
	return r.series[si].vals[(r.ticks-1)%r.capacity]
}
