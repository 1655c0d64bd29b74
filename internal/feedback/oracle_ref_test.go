package feedback

import (
	"fmt"
	"reflect"
	"testing"

	"viator/internal/allocpin"
	"viator/internal/sim"
)

// This file retains the pre-overhaul linear-scan bus verbatim as the
// oracle for the route-table rewrite: for any interleaving of
// subscriptions (keyed and wildcard), key interning and publishes, the
// rewrite's PublishKey must deliver the same signals to the same
// handlers in the same order.

type refBus struct {
	subs       []subscription
	enabled    [NumDimensions]bool
	Published  [NumDimensions]uint64
	Suppressed uint64
}

func newRefBus() *refBus {
	b := &refBus{}
	for d := Dimension(0); d < NumDimensions; d++ {
		b.enabled[d] = true
	}
	return b
}

func (b *refBus) subscribe(d Dimension, key string, h Handler) {
	b.subs = append(b.subs, subscription{dim: d, key: key, handler: h})
}

func (b *refBus) publish(s Signal) {
	if s.Dim >= NumDimensions {
		panic("feedback: bad dimension")
	}
	if !b.enabled[s.Dim] {
		b.Suppressed++
		return
	}
	b.Published[s.Dim]++
	for _, sub := range b.subs {
		if sub.dim == s.Dim && (sub.key == "" || sub.key == s.Key) {
			sub.handler(s)
		}
	}
}

// delivery is one handler invocation, tagged with the subscriber that
// received it so order and fan-out can be compared exactly.
type delivery struct {
	Sub int
	Sig Signal
}

// TestBusMatchesReference drives the rewrite and the verbatim old bus
// through the same random schedule of keyed/wildcard subscriptions,
// Key(...) interning calls, enable/disable flips and publishes — every
// publish a Key+PublishKey on the rewrite — and compares the full
// delivery logs.
func TestBusMatchesReference(t *testing.T) {
	keys := []string{"n0", "n1", "s:alpha", "s:beta", "link-7"}
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed * 311)
		bk := newRouter() // the rewrite, exercised via PublishKey
		r := newRefBus()  // verbatim oracle
		var logK, logR []delivery
		record := func(log *[]delivery, sub int) Handler {
			return func(s Signal) { *log = append(*log, delivery{Sub: sub, Sig: s}) }
		}
		subs := 0
		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0, 1: // keyed or wildcard subscription
				d := Dimension(rng.Intn(int(NumDimensions)))
				key := ""
				if rng.Bool(0.7) {
					key = keys[rng.Intn(len(keys))]
				}
				bk.Subscribe(d, key, record(&logK, subs))
				r.subscribe(d, key, record(&logR, subs))
				subs++
			case 2: // intern a key ahead of use: must not change routing
				// outcomes
				bk.Key(Dimension(rng.Intn(int(NumDimensions))), keys[rng.Intn(len(keys))])
			case 3: // ablation flip
				d := Dimension(rng.Intn(int(NumDimensions)))
				on := rng.Bool(0.5)
				bk.Enable(d, on)
				r.enabled[d] = on
			default: // publish; sometimes with a never-subscribed key
				d := Dimension(rng.Intn(int(NumDimensions)))
				key := keys[rng.Intn(len(keys))]
				if rng.Bool(0.1) {
					key = fmt.Sprintf("stray-%d", step)
				}
				s := Signal{Dim: d, Key: key, Value: rng.Float64(), Time: float64(step)}
				bk.PublishKey(d, bk.Key(d, key), s.Value, s.Time)
				r.publish(s)
			}
		}
		if !reflect.DeepEqual(logK, logR) {
			t.Fatalf("seed %d: PublishKey deliveries diverge from reference (%d vs %d entries)", seed, len(logK), len(logR))
		}
		if bk.Published != r.Published || bk.Suppressed != r.Suppressed {
			t.Fatalf("seed %d: keyed counters diverge: %v/%d vs %v/%d", seed, bk.Published, bk.Suppressed, r.Published, r.Suppressed)
		}
	}
}

// TestPublishKeyAllocFree pins the per-signal fast path: with keys
// interned and handlers subscribed, publishing allocates nothing.
func TestPublishKeyAllocFree(t *testing.T) {
	b := newRouter()
	sink := 0.0
	b.Subscribe(PerNode, "n0", func(s Signal) { sink += s.Value })
	b.Subscribe(PerNode, "", func(s Signal) { sink += s.Value })
	k := b.Key(PerNode, "n0")
	b.PublishKey(PerNode, k, 1.0, 0)
	allocpin.Max(t, 100, 0, func() {
		b.PublishKey(PerNode, k, 0.5, 1.0)
	})
	if sink == 0 {
		t.Fatal("handlers never ran")
	}
}
