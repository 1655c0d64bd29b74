// Package feedback implements the Multidimensional Feedback Principle
// (MFP): named feedback dimensions spanning node, packet, method,
// multicast-branch, message, interoperability, application, session and
// data-link scope, a publish/subscribe feedback bus connecting sensors to
// controllers, and the rate controllers (AIMD, EWMA threshold) that close
// the loops.
//
// The paper's point is that an active network can regulate traffic on all
// of these axes *simultaneously*; experiment E9 ablates the dimension set
// and measures the resulting loss/latency.
package feedback

import (
	"fmt"

	"viator/internal/stats"
)

// Dimension identifies one feedback axis from section C.3 of the paper.
type Dimension uint8

// The feedback dimensions named in the paper, in order of introduction.
const (
	PerNode          Dimension = iota // each active node controls its own resources
	PerConfiguration                  // node reconfiguration as a control action
	PerPacket                         // active packets carrying per-user data
	PerMethod                         // programs (encoders, compilers) mounted on nodes
	PerBranch                         // per-multicast-branch traffic adaptation
	PerMessage                        // customized computation on messages in routers
	PerInterop                        // interactions with subsets of legacy routers
	PerApplication                    // differentiated auxiliary services
	PerSession                        // per-session service customization
	PerDataLink                       // OSI data-link level customization
	NumDimensions
)

var dimNames = [NumDimensions]string{
	"per-node", "per-configuration", "per-packet", "per-method",
	"per-branch", "per-message", "per-interop", "per-application",
	"per-session", "per-datalink",
}

// String returns the paper's name for the dimension.
func (d Dimension) String() string {
	if d < NumDimensions {
		return dimNames[d]
	}
	return fmt.Sprintf("dimension(%d)", uint8(d))
}

// Signal is one feedback observation flowing over the bus.
type Signal struct {
	Dim   Dimension
	Key   string // entity within the dimension (node name, session id, …)
	Value float64
	Time  float64
}

// Handler consumes signals for a subscription.
type Handler func(Signal)

type subscription struct {
	dim     Dimension
	key     string // "" subscribes to every key in the dimension
	handler Handler
}

// Key is a stable integer handle to one (dimension, key) routing target,
// resolved once via Bus.Key and then usable with PublishKey on the
// per-signal path — the stats.Key pattern applied to signal routing.
type Key int32

// dimState is one dimension's routing table. Routes are rebuilt eagerly
// on the cold paths (Subscribe, Key interning) so PublishKey only walks
// precomputed subscription-index lists.
type dimState struct {
	keyIdx   map[string]Key
	keyNames []string
	// routes[k] lists the indices into Bus.subs matching keyNames[k]
	// (keyed and wildcard subscriptions merged), ascending — which is
	// subscription order, the delivery-order contract.
	routes [][]int32
	// wildcard lists the subscriptions with key "", ascending; every
	// freshly interned key's route starts from it.
	wildcard []int32
}

// Bus routes signals from sensors to subscribed controllers. Subscribers
// are invoked synchronously in subscription order (deterministic). Bus is
// not safe for concurrent use; simulations are single-threaded.
type Bus struct {
	subs    []subscription
	dims    [NumDimensions]dimState
	enabled [NumDimensions]bool
	// Published counts accepted signals per dimension; Suppressed counts
	// signals dropped because their dimension was disabled.
	Published  [NumDimensions]uint64
	Suppressed uint64
}

// NewBus creates a bus with every dimension enabled.
func NewBus() *Bus {
	b := &Bus{}
	for d := Dimension(0); d < NumDimensions; d++ {
		b.enabled[d] = true
	}
	return b
}

// Enable switches one dimension on or off. Disabled dimensions drop their
// signals — the ablation knob for experiment E9.
func (b *Bus) Enable(d Dimension, on bool) { b.enabled[d] = on }

// Enabled reports whether the dimension is active.
func (b *Bus) Enabled(d Dimension) bool { return b.enabled[d] }

// EnableOnly enables exactly the listed dimensions.
func (b *Bus) EnableOnly(dims ...Dimension) {
	for d := Dimension(0); d < NumDimensions; d++ {
		b.enabled[d] = false
	}
	for _, d := range dims {
		b.enabled[d] = true
	}
}

// Subscribe registers a handler for a (dimension, key) pair; an empty key
// receives every signal in the dimension. Routing tables are extended
// here, on the cold path, so publishing stays allocation-free.
func (b *Bus) Subscribe(d Dimension, key string, h Handler) {
	if d >= NumDimensions {
		panic("feedback: bad dimension")
	}
	si := int32(len(b.subs))
	b.subs = append(b.subs, subscription{dim: d, key: key, handler: h})
	st := &b.dims[d]
	if key == "" {
		// A wildcard matches every key: merge into every existing route.
		// si is the highest index, so appending preserves the ascending
		// (= subscription-order) invariant.
		st.wildcard = append(st.wildcard, si)
		for k := range st.routes {
			st.routes[k] = append(st.routes[k], si)
		}
		return
	}
	k := b.Key(d, key)
	st.routes[k] = append(st.routes[k], si)
}

// Key resolves a (dimension, key) pair to its integer routing handle,
// building the merged delivery route on first use.
func (b *Bus) Key(d Dimension, name string) Key {
	if d >= NumDimensions {
		panic("feedback: bad dimension")
	}
	st := &b.dims[d]
	if k, ok := st.keyIdx[name]; ok {
		return k
	}
	if st.keyIdx == nil {
		st.keyIdx = make(map[string]Key)
	}
	k := Key(len(st.keyNames))
	st.keyIdx[name] = k
	st.keyNames = append(st.keyNames, name)
	// A fresh key is matched by exactly the wildcard subscriptions so far.
	route := make([]int32, len(st.wildcard))
	copy(route, st.wildcard)
	st.routes = append(st.routes, route)
	return k
}

// PublishKey delivers a signal through a pre-resolved routing handle —
// the allocation-free per-signal fast path. Handlers still receive the
// full Signal, with the key string recovered from the intern table.
//
//viator:noalloc
func (b *Bus) PublishKey(d Dimension, k Key, value, now float64) {
	if d >= NumDimensions {
		panic("feedback: bad dimension") //viator:alloc-ok panic path: out-of-range dimension is a model bug, never taken in a valid run
	}
	if !b.enabled[d] {
		b.Suppressed++
		return
	}
	b.Published[d]++
	st := &b.dims[d]
	s := Signal{Dim: d, Key: st.keyNames[k], Value: value, Time: now}
	for _, si := range st.routes[k] {
		b.subs[si].handler(s)
	}
}

// AIMD is the additive-increase / multiplicative-decrease rate controller
// used for per-session and per-branch loops (the TCP-style regulation the
// paper generalizes).
type AIMD struct {
	Rate float64 // current permitted rate
	Min  float64
	Max  float64
	Incr float64 // additive step on positive feedback
	Decr float64 // multiplicative factor on negative feedback, in (0,1)
}

// NewAIMD builds a controller starting at start.
func NewAIMD(start, min, max, incr, decr float64) *AIMD {
	if min > max || decr <= 0 || decr >= 1 || incr <= 0 {
		panic("feedback: bad AIMD parameters")
	}
	a := &AIMD{Rate: start, Min: min, Max: max, Incr: incr, Decr: decr}
	a.clamp()
	return a
}

func (a *AIMD) clamp() {
	if a.Rate < a.Min {
		a.Rate = a.Min
	}
	if a.Rate > a.Max {
		a.Rate = a.Max
	}
}

// OnGood applies additive increase and returns the new rate.
func (a *AIMD) OnGood() float64 {
	a.Rate += a.Incr
	a.clamp()
	return a.Rate
}

// OnBad applies multiplicative decrease and returns the new rate.
func (a *AIMD) OnBad() float64 {
	a.Rate *= a.Decr
	a.clamp()
	return a.Rate
}

// Threshold is a hysteresis detector over an EWMA-smoothed signal: it
// trips when the average exceeds High and resets when it falls below Low.
// Ships use it to decide when a role migration or reconfiguration pulse
// is warranted without flapping.
type Threshold struct {
	High, Low float64
	Avg       stats.EWMA
	tripped   bool
}

// NewThreshold builds a detector; alpha is the EWMA smoothing factor.
func NewThreshold(high, low, alpha float64) *Threshold {
	if low > high {
		panic("feedback: low above high")
	}
	return &Threshold{High: high, Low: low, Avg: stats.EWMA{Alpha: alpha}}
}

// Update folds in a measurement and reports whether the detector is in the
// tripped state afterwards.
func (t *Threshold) Update(v float64) bool {
	avg := t.Avg.Update(v)
	if !t.tripped && avg > t.High {
		t.tripped = true
	} else if t.tripped && avg < t.Low {
		t.tripped = false
	}
	return t.tripped
}

// Tripped reports the current state without updating.
func (t *Threshold) Tripped() bool { return t.tripped }
