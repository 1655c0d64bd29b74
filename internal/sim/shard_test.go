package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"viator/internal/allocpin"
)

// The sharded-executor tests drive a toy model whose trajectory is, by
// construction, independent of the shard count: every random decision
// comes from per-entity RNG streams (never a kernel RNG), and timestamps
// are continuous draws so equal-time ties across shards have measure
// zero. Running the model under K shards and under a plain single-kernel
// oracle must then produce the same chronological event log — which is
// exactly the property the sharded S3 compiler relies on.

// toyEvent is one fired model event for the comparison log.
type toyEvent struct {
	at     Time
	shard  int // logical home shard at fire time
	entity int
	x      float64
}

// toyMsg is a cross-shard handoff in flight (pointer payload, so posting
// it boxes nothing).
type toyMsg struct {
	entity int
	x      float64
}

// toyModel runs nEntities random walkers over k logical strips of width
// stripW for `horizon` seconds with cross-strip handoff latency >= la.
// When group is nil the model runs on a single oracle kernel and
// "handoff" is a plain local schedule at the same absolute time.
func toyModel(t *testing.T, group *ShardGroup, k int, seed uint64, la Time, horizon Time) []toyEvent {
	t.Helper()
	const nEntities = 24
	const stripW = 100.0
	logs := make([][]toyEvent, k)
	var oracle *Kernel
	if group == nil {
		oracle = NewKernel(seed)
	}
	kernelOf := func(s int) *Kernel {
		if oracle != nil {
			return oracle
		}
		return group.Shard(s)
	}
	rngs := make([]*RNG, nEntities)
	for e := range rngs {
		rngs[e] = NewRNG(seed ^ (uint64(e+1) * 0x9e3779b97f4a7c15))
	}
	// step fires entity e at its current home shard s with position x.
	var step func(s, e int, x float64)
	var msgs []*toyMsg // preallocated per entity; reused across hops
	step = func(s, e int, x float64) {
		k0 := kernelOf(s)
		now := k0.Now()
		logs[s] = append(logs[s], toyEvent{at: now, shard: s, entity: e, x: x})
		rng := rngs[e]
		// Random walk; strip index decides the owning shard.
		nx := x + (rng.Float64()-0.5)*60
		if nx < 0 {
			nx = -nx
		}
		if max := stripW * float64(k); nx >= max {
			nx = 2*max - nx - 1e-9
		}
		ns := int(nx / stripW)
		if ns < 0 {
			ns = 0
		}
		if ns >= k {
			ns = k - 1
		}
		dt := la + 0.001 + rng.Float64()*0.05
		at := now + dt
		if at > horizon {
			return
		}
		if ns == s || group == nil {
			if group == nil && ns != s {
				// Oracle: the handoff is just a future event at the new home.
				ns := ns
				e := e
				nx := nx
				k0.At(at, func() { step(ns, e, nx) })
				return
			}
			ns := ns
			e := e
			nx := nx
			k0.At(at, func() { step(ns, e, nx) })
			return
		}
		m := msgs[e]
		m.entity, m.x = e, nx
		group.Post(s, ns, at, m)
	}
	msgs = make([]*toyMsg, nEntities)
	for e := range msgs {
		msgs[e] = &toyMsg{}
	}
	if group != nil {
		for s := 0; s < k; s++ {
			s := s
			group.OnMail(s, func(payload any) {
				m := payload.(*toyMsg)
				step(s, m.entity, m.x)
			})
		}
	}
	// Seed every entity at t=0.001*(e+1) at a deterministic strip.
	for e := 0; e < nEntities; e++ {
		e := e
		s := e % k
		x := stripW*float64(s) + stripW/2
		kernelOf(s).At(0.001*float64(e+1), func() { step(s, e, x) })
	}
	if group != nil {
		group.run(horizon)
	} else {
		oracle.Run(horizon)
	}
	var all []toyEvent
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.entity < b.entity
	})
	return all
}

func logString(events []toyEvent) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%.9f s%d e%d x%.6f\n", e.at, e.shard, e.entity, e.x)
	}
	return b.String()
}

// The adversarial schedule: K=4 windowed execution must match the K=1
// single-kernel oracle event for event, across several seeds.
func TestShardGroupMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{1, 42, 999} {
		const k, la, horizon = 4, 0.05, 8.0
		g := NewShardGroup(k, seed, la)
		defer g.Close()
		got := logString(toyModel(t, g, k, seed, la, horizon))
		want := logString(toyModel(t, nil, k, seed, la, horizon))
		if got != want {
			t.Fatalf("seed %d: sharded log diverged from oracle\nsharded:\n%.400s\noracle:\n%.400s", seed, got, want)
		}
		if g.Windows == 0 {
			t.Fatal("windowed path never ran")
		}
	}
}

// Fixed K must replay byte-identical across runs and however many OS
// threads run the window workers — the sharded analogue of the
// replicate-level determinism gate.
func TestShardGroupDeterministicAcrossWorkers(t *testing.T) {
	const k, la, horizon = 4, 0.05, 6.0
	seed := uint64(1234)
	base := ""
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		g := NewShardGroup(k, seed, la)
		defer g.Close()
		log := logString(toyModel(t, g, k, seed, la, horizon))
		if base == "" {
			base = log
		} else if log != base {
			t.Fatalf("GOMAXPROCS=%d diverged from GOMAXPROCS=1", procs)
		}
	}
}

// Empty shards idle for free: a group where only shard 0 has events
// completes, advances every clock to the horizon, and fires nothing on
// the idle shards.
func TestShardGroupEmptyShardsIdle(t *testing.T) {
	g := NewShardGroup(4, 9, 0.1)
	defer g.Close()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if g.Shard(0).Now() < 4.5 {
			g.Shard(0).After(1.0, tick)
		}
	}
	g.Shard(0).After(1.0, tick)
	total := g.run(10)
	if fired != 5 || total != 5 {
		t.Fatalf("fired = %d / total %d, want 5", fired, total)
	}
	for i := 0; i < 4; i++ {
		if now := g.Shard(i).Now(); now != 10 {
			t.Fatalf("shard %d clock = %v, want 10", i, now)
		}
		if i > 0 && g.Shard(i).fired != 0 {
			t.Fatalf("idle shard %d fired %d events", i, g.Shard(i).fired)
		}
	}
}

// Infinite lookahead (no cross-shard links at all) runs each shard in a
// single window to the horizon.
func TestShardGroupInfiniteLookaheadSingleWindow(t *testing.T) {
	g := NewShardGroup(2, 5, math.Inf(1))
	defer g.Close()
	var n [2]int // per-shard counters: both shards run concurrently in one window
	g.Shard(0).At(1, func() { n[0]++ })
	g.Shard(1).At(2, func() { n[1]++ })
	g.run(3)
	if n[0]+n[1] != 2 {
		t.Fatalf("fired %d, want 2", n[0]+n[1])
	}
	if g.Windows != 1 {
		t.Fatalf("windows = %d, want 1", g.Windows)
	}
}

// A group needs at least one shard and a positive lookahead: with no
// lookahead no window is safe to run in parallel.
func TestNewShardGroupRejectsBadShape(t *testing.T) {
	for _, c := range []struct {
		k  int
		la Time
	}{{0, 1}, {2, 0}, {2, -1}, {2, Time(math.NaN())}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShardGroup(%d, _, %v) did not panic", c.k, c.la)
				}
			}()
			NewShardGroup(c.k, 1, c.la)
		}()
	}
}

// Posting below the lookahead bound is a model bug and must panic.
func TestShardGroupLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(2, 3, 0.5)
	defer g.Close()
	// Shard 0 runs its windows on this goroutine, so recover sees the
	// panic of a post from shard 0.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on lookahead violation")
		}
	}()
	g.Shard(0).At(1, func() {
		g.Post(0, 1, g.Shard(0).Now()+0.1, nil) // 0.1 < lookahead 0.5
	})
	g.run(2)
}

// Commit order at a barrier: entries with equal arrival times commit in
// (seq, shard) order, and local events scheduled in earlier windows fire
// before same-time mail (kernel-seq FIFO).
func TestShardGroupCommitOrder(t *testing.T) {
	g := NewShardGroup(3, 11, 1.0)
	defer g.Close()
	var order []string
	g.OnMail(2, func(payload any) {
		order = append(order, payload.(*toyMsg).String())
	})
	// Local event on shard 2 at t=5, scheduled up front (earliest seq).
	g.Shard(2).At(5, func() { order = append(order, "local@5") })
	// Shards 0 and 1 each post two messages arriving at t=5.
	mk := func(tag int) *toyMsg { return &toyMsg{entity: tag} }
	g.Shard(0).At(1, func() {
		g.Post(0, 2, 5, mk(1)) // seq 0, shard 0
		g.Post(0, 2, 5, mk(2)) // seq 1, shard 0
	})
	g.Shard(1).At(1, func() {
		g.Post(1, 2, 5, mk(3)) // seq 0, shard 1
	})
	g.run(6)
	want := "local@5,e1,e3,e2"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("commit order = %s, want %s", got, want)
	}
}

func (m *toyMsg) String() string { return fmt.Sprintf("e%d", m.entity) }

// The per-shard event commit and mailbox exchange paths hold the
// zero-alloc contract in steady state: post → barrier exchange →
// heap commit, with warmed outboxes and inbox heaps.
func TestShardMailboxSteadyStateAllocFree(t *testing.T) {
	g := NewShardGroup(2, 21, 0.5)
	defer g.Close()
	delivered := 0
	g.OnMail(1, func(payload any) { delivered++ })
	msg := &toyMsg{}
	at := Time(1.0)
	// Warm-up: grow the outbox, inbox heap and both kernels' arenas.
	for i := 0; i < 64; i++ {
		g.Post(0, 1, at, msg)
	}
	g.exchange()
	g.Shard(1).Run(at)
	g.Shard(0).Run(at)
	allocpin.Zero(t, 1000, func() {
		at += 1.0
		g.Post(0, 1, at, msg)
		g.exchange()
		g.Shard(1).Run(at)
	}, "(*ShardGroup).Post", "(*ShardGroup).exchange",
		"(*shardState).pushInbox", "(*shardState).popInbox", "(*shardState).commit",
		"(*Kernel).RunBefore", "(*Kernel).NextEventTime")
	if delivered == 0 {
		t.Fatal("no mail delivered")
	}
}

// --- the new kernel primitives ---

func TestKernelNextEventTime(t *testing.T) {
	k := NewKernel(1)
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("empty kernel reported a next event")
	}
	k.At(5, func() {})
	ev := k.At(2, func() {})
	if at, ok := k.NextEventTime(); !ok || at != 2 {
		t.Fatalf("next = %v/%v, want 2/true", at, ok)
	}
	// Cancelled events still gate the queue until their time passes.
	ev.Cancel()
	if at, ok := k.NextEventTime(); !ok || at != 2 {
		t.Fatalf("next after cancel = %v/%v, want 2/true", at, ok)
	}
}

func TestKernelRunBeforeIsStrictAndKeepsClock(t *testing.T) {
	k := NewKernel(1)
	var fired []float64
	for _, at := range []float64{1, 2, 3} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	if n := k.RunBefore(3); n != 2 {
		t.Fatalf("fired %d events, want 2 (strictly before 3)", n)
	}
	if k.Now() != 2 {
		t.Fatalf("clock = %v, want 2 (last fired event)", k.Now())
	}
	if n := k.RunBefore(3.5); n != 1 || k.Now() != 3 {
		t.Fatalf("second window fired %d, clock %v", n, k.Now())
	}
	if len(fired) != 3 {
		t.Fatalf("fired = %v", fired)
	}
}
