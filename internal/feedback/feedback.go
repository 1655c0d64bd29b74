// Package feedback implements the Multidimensional Feedback Principle
// (MFP): named feedback dimensions spanning node, packet, method,
// multicast-branch, message, interoperability, application, session and
// data-link scope, a bus of per-dimension switches, and the rate
// controllers (AIMD, EWMA threshold) that close the loops.
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

// Bus holds which feedback dimensions are active: the switch set a
// controller consults before closing its loop. Bus is not safe for
// concurrent use; simulations are single-threaded.
type Bus struct {
	enabled [NumDimensions]bool
}

// NewBus creates a bus with every dimension enabled.
func NewBus() *Bus {
	b := &Bus{}
	for d := Dimension(0); d < NumDimensions; d++ {
		b.enabled[d] = true
	}
	return b
}

// Enable switches one dimension on or off — the ablation knob for
// experiment E9.
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
