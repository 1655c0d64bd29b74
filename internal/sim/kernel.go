// Package sim provides the deterministic discrete-event simulation kernel
// that every Viator substrate runs on: a virtual clock, an allocation-free
// event queue, a reproducible random number generator (splitmix64) and a
// parallel trial executor.
//
// The kernel is intentionally single-threaded per simulation instance so
// that a (seed, scenario) pair always replays the exact same trajectory;
// parallelism is applied across independent trials (see RunParallel), the
// standard replication pattern for simulation studies.
//
// # Event queue design
//
// Events live in a pooled arena inside the Kernel: scheduling writes into a
// recycled slot and pushes a slot index onto an index-based binary heap, so
// the steady-state hot path performs no heap allocation and no interface
// boxing (the costs that dominated the earlier container/heap
// implementation). Event handles are small values carrying a generation
// tag, which makes Cancel on an already-fired (and possibly recycled) event
// a safe no-op. Events with equal timestamps fire in scheduling order
// (FIFO), which keeps trajectories deterministic.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time = float64

// Event is a value handle to a scheduled callback, returned by At and
// After. The zero Event is inert: Cancel and Cancelled are no-ops on it.
type Event struct {
	k   *Kernel
	id  int32
	gen uint32
}

// Cancel marks the event so the kernel skips it when its time comes, and
// releases the callback immediately. Cancelling an already-fired (or
// already-cancelled) event is a no-op.
func (e Event) Cancel() {
	if e.k == nil || e.id < 0 || int(e.id) >= len(e.k.slots) {
		return
	}
	s := &e.k.slots[e.id]
	if s.gen != e.gen {
		return // slot already fired and possibly recycled
	}
	s.dead = true
	s.fn = nil
}

// slot is one arena entry. Slots are recycled through a free list; gen
// increments on every release so stale Event handles cannot touch a reused
// slot.
type slot struct {
	at   Time
	fn   func()
	seq  uint64
	gen  uint32
	dead bool
}

// Kernel is a discrete-event simulation engine: a virtual clock plus a
// time-ordered event queue. It is not safe for concurrent use; run one
// kernel per goroutine (see RunParallel for the replication pattern).
type Kernel struct {
	now     Time
	slots   []slot  // event arena; index = event id
	free    []int32 // recycled slot ids
	heap    []int32 // binary heap of slot ids ordered by (at, seq)
	seq     uint64
	fired   uint64
	stopped bool
	Rand    *RNG
}

// NewKernel returns a kernel at time zero with a deterministic RNG.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{Rand: NewRNG(seed)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a model bug and silently clamping would hide it.
//
//viator:noalloc
func (k *Kernel) At(t Time, fn func()) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now)) //viator:alloc-ok panic path: scheduling in the past is a model bug, never taken in a valid run
	}
	if math.IsNaN(t) {
		panic("sim: schedule at NaN") //viator:alloc-ok panic path: NaN time is a model bug, never taken in a valid run
	}
	var id int32
	if n := len(k.free); n > 0 {
		id = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, slot{})
		id = int32(len(k.slots) - 1)
	}
	s := &k.slots[id]
	s.at, s.fn, s.seq, s.dead = t, fn, k.seq, false
	k.seq++
	k.heap = append(k.heap, id)
	k.siftUp(len(k.heap) - 1)
	return Event{k: k, id: id, gen: s.gen}
}

// After schedules fn delay seconds from now.
//
//viator:noalloc
func (k *Kernel) After(delay Time, fn func()) Event {
	return k.At(k.now+delay, fn)
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the queue drains, the
// horizon passes, or Stop is called. It returns the number of events fired
// during this call.
//
//viator:noalloc
func (k *Kernel) Run(until Time) uint64 {
	k.stopped = false
	start := k.fired
	for len(k.heap) > 0 && !k.stopped {
		id := k.heap[0]
		s := &k.slots[id]
		if s.at > until {
			break
		}
		at, fn, dead := s.at, s.fn, s.dead
		k.popRoot()
		k.release(id)
		if dead {
			continue
		}
		k.now = at
		k.fired++
		fn()
	}
	if k.now < until && !k.stopped {
		k.now = until
	}
	return k.fired - start
}

// release returns a fired or expired slot to the free list. The generation
// bump invalidates every outstanding handle to it.
//
//viator:noalloc
func (k *Kernel) release(id int32) {
	s := &k.slots[id]
	s.fn = nil
	s.gen++
	k.free = append(k.free, id)
}

// less orders heap entries by (timestamp, scheduling sequence) — the FIFO
// tie-break that makes equal-time trajectories deterministic.
//
//viator:noalloc
func (k *Kernel) less(a, b int32) bool {
	sa, sb := &k.slots[a], &k.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

//viator:noalloc
func (k *Kernel) siftUp(i int) {
	h := k.heap
	for i > 0 {
		p := (i - 1) / 2
		if !k.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

//viator:noalloc
func (k *Kernel) popRoot() {
	h := k.heap
	n := len(h) - 1
	h[0] = h[n]
	k.heap = h[:n]
	if n > 0 {
		k.siftDown(0)
	}
}

//viator:noalloc
func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && k.less(h[r], h[l]) {
			m = r
		}
		if !k.less(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// NextEventTime returns the timestamp of the earliest queued event and
// whether one exists. Cancelled-but-unexpired events count: their slot
// still occupies the queue until its timestamp passes, and a conservative
// scheduler that treated them as absent could compute a horizon the
// kernel then fails to honor. An empty queue reports ok == false — the
// idle-shard signal the sharded executor uses to skip a shard entirely.
//
//viator:noalloc
func (k *Kernel) NextEventTime() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.slots[k.heap[0]].at, true
}

// RunBefore executes events with timestamps strictly below horizon, in
// the same (at, seq) order as Run, and returns the number fired. Unlike
// Run it never advances the clock past the last fired event: the caller
// owns the window boundary. This is the windowed primitive of the sharded
// executor — each shard runs [now, horizon) and stops, so no shard can
// observe a cross-shard event that a slower shard has yet to send.
//
//viator:noalloc
func (k *Kernel) RunBefore(horizon Time) uint64 {
	k.stopped = false
	start := k.fired
	for len(k.heap) > 0 && !k.stopped {
		id := k.heap[0]
		s := &k.slots[id]
		if s.at >= horizon {
			break
		}
		at, fn, dead := s.at, s.fn, s.dead
		k.popRoot()
		k.release(id)
		if dead {
			continue
		}
		k.now = at
		k.fired++
		fn()
	}
	return k.fired - start
}

// Every schedules fn to run now+period, then every period thereafter, until
// the returned Ticker is stopped. The callback observes the kernel clock.
func (k *Kernel) Every(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	t := &Ticker{k: k, period: period, fn: fn}
	// One closure for the ticker's whole lifetime; re-arming reuses it so a
	// long-lived ticker costs nothing per occurrence.
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

// Ticker is a periodic event source created by Kernel.Every.
type Ticker struct {
	k       *Kernel
	period  Time
	fn      func()
	tick    func()
	ev      Event
	stopped bool
}

func (t *Ticker) arm() {
	t.ev = t.k.After(t.period, t.tick)
}

// Stop halts the ticker; the pending occurrence is cancelled.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
