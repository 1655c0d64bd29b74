package sim

import (
	"math"
	"sort"
	"testing"
	"viator/internal/allocpin"
)

// refEvent mirrors one scheduled event for the reference queue: the naive
// specification the arena heap must match exactly.
type refEvent struct {
	at        Time
	seq       int
	cancelled bool
}

// TestArenaDeterminismVsReference drives the kernel with a randomized
// schedule (including cancellations) and checks the fire order against a
// straightforward sort by (time, scheduling sequence) — the contract the
// old container/heap implementation satisfied.
func TestArenaDeterminismVsReference(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := NewRNG(uint64(trial) + 100)
		k := NewKernel(1)
		const n = 3000
		ref := make([]refEvent, 0, n)
		handles := make([]Event, 0, n)
		var got []int
		for i := 0; i < n; i++ {
			i := i
			at := r.Float64() * 500
			handles = append(handles, k.At(at, func() { got = append(got, i) }))
			ref = append(ref, refEvent{at: at, seq: i})
		}
		// Cancel a random quarter before running.
		for i := 0; i < n/4; i++ {
			victim := r.Intn(n)
			handles[victim].Cancel()
			ref[victim].cancelled = true
		}
		var want []int
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			if ref[order[a]].at != ref[order[b]].at {
				return ref[order[a]].at < ref[order[b]].at
			}
			return ref[order[a]].seq < ref[order[b]].seq
		})
		for _, i := range order {
			if !ref[i].cancelled {
				want = append(want, i)
			}
		}
		k.Run(1000)
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference says %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire order diverged at position %d: got %d want %d",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestArenaSameSeedSameTrajectory replays an event-churning model twice
// and requires identical trajectories — the determinism property every
// experiment's byte-identical output rests on.
func TestArenaSameSeedSameTrajectory(t *testing.T) {
	run := func() []Time {
		k := NewKernel(77)
		r := k.Rand.Split()
		var trace []Time
		var spawn func()
		spawn = func() {
			trace = append(trace, k.Now())
			if len(trace) < 5000 {
				// Schedule two, cancel one: constant slot churn.
				keep := k.After(r.Float64()+0.001, spawn)
				_ = keep
				k.After(r.Float64()+0.001, func() {}).Cancel()
			}
		}
		k.After(0.5, spawn)
		k.Run(1e9)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestArenaCancelUnderLoad cancels events from inside callbacks while the
// queue is heavily loaded, including double-cancels and cancels of events
// at the same timestamp as the canceller.
func TestArenaCancelUnderLoad(t *testing.T) {
	k := NewKernel(1)
	const n = 5000
	events := make([]Event, n)
	fired := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		events[i] = k.At(Time(i%100)+1, func() { fired[i] = true })
	}
	// Cancellers run interleaved with the load: each kills its +50 sibling.
	for i := 0; i < n; i += 2 {
		i := i
		k.At(Time(i%100)+0.5, func() {
			if i+50 < n {
				events[i+50].Cancel()
				events[i+50].Cancel() // double-cancel must be harmless
			}
		})
	}
	k.Run(1000)
	for i := 0; i < n; i++ {
		cancelled := false
		// Event i was cancelled iff some even i-50 canceller ran before
		// its timestamp. The canceller at (i-50)%100+0.5 precedes firing
		// time i%100+1 exactly when (i-50)%100 <= i%100.
		if i >= 50 && (i-50)%2 == 0 && (i-50)%100 <= i%100 {
			cancelled = true
		}
		if fired[i] == cancelled {
			t.Fatalf("event %d: fired=%v cancelled=%v", i, fired[i], cancelled)
		}
	}
}

// TestArenaStaleHandleCannotTouchReusedSlot fires an event, then cancels
// it through the stale handle after its arena slot has been recycled for a
// new event. The generation tag must protect the new occupant.
func TestArenaStaleHandleCannotTouchReusedSlot(t *testing.T) {
	k := NewKernel(1)
	stale := k.At(1, func() {})
	k.Run(2) // fires; slot returns to the free list
	if stale.cancelled() {
		t.Fatal("fired event reports cancelled")
	}
	reusedFired := false
	reused := k.At(3, func() { reusedFired = true })
	stale.Cancel() // stale generation: must be a no-op
	if reused.cancelled() {
		t.Fatal("stale Cancel leaked onto the recycled slot")
	}
	k.Run(4)
	if !reusedFired {
		t.Fatal("recycled event did not fire after stale Cancel")
	}
}

// TestArenaZeroEventInert checks the zero Event handle is safe.
func TestArenaZeroEventInert(t *testing.T) {
	var e Event
	e.Cancel()
	if e.cancelled() {
		t.Fatal("zero event reports cancelled")
	}
}

// TestArenaSteadyStateAllocFree verifies the schedule/fire cycle performs
// no allocation once the arena is warm — the hot-path contract.
func TestArenaSteadyStateAllocFree(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	// Warm the arena and the heap's backing array.
	for i := 0; i < 2048; i++ {
		k.After(1, fn)
	}
	k.Run(math.Inf(1))
	allocpin.Zero(t, 1000, func() {
		k.After(1, fn)
		k.Run(k.Now() + 2)
	}, "(*Kernel).After", "(*Kernel).Run")
}

// TestArenaPendingCountsCancelled documents that Pending includes
// cancelled-but-unexpired events, matching the previous implementation.
func TestArenaPendingCountsCancelled(t *testing.T) {
	k := NewKernel(1)
	e := k.At(5, func() {})
	e.Cancel()
	if len(k.heap) != 1 {
		t.Fatalf("pending = %d, want 1 (cancelled events count until expiry)", len(k.heap))
	}
	k.Run(10)
	if len(k.heap) != 0 {
		t.Fatalf("pending = %d after run", len(k.heap))
	}
	if k.fired != 0 {
		t.Fatalf("cancelled event counted as fired")
	}
}
