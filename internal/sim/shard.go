package sim

import (
	"fmt"
	"math"
	"sync"
)

// Conservative space-partitioned parallel execution: a ShardGroup runs K
// kernels — one per spatial shard, each on its own goroutine during a
// window — and synchronizes them in the classic conservative PDES mold.
//
// # Windowed conservative synchronization
//
// Let L be the lookahead: the minimum latency of any cross-shard link, so
// an event executed at time t on one shard can affect another shard no
// earlier than t + L. Each round the group computes T, the minimum next
// event time across all shards, and runs every shard concurrently over
// the half-open window [T, T+L): no event inside the window can generate
// a cross-shard effect inside it, so the shards are state-disjoint for
// the window's duration and the concurrency is free of both races and
// result-dependence on scheduling. At the window barrier the outboxes are
// exchanged: every posted cross-shard event carries a timestamp >= T + L,
// i.e. at or beyond the next window's start, so it is committed before
// any shard could run past it.
//
// # Deterministic commit order
//
// Cross-shard events are committed in (time, seq, shard) order: each
// destination shard owns a binary heap of pending mail ordered by arrival
// time, then posting sequence, then source shard index, and a single
// persistent per-shard delivery closure pops the heap minimum whenever
// the kernel reaches a mail timestamp. Mail committed at a barrier is
// scheduled after all events the destination armed in earlier windows, so
// kernel-seq FIFO puts same-timestamp local events before same-timestamp
// mail, and mail from different sources in (seq, shard) order — a total
// order depending only on (specs, seeds, K), never on goroutine timing.
// Fixed K therefore replays byte-identical, however the goroutines are
// scheduled.
//
// # Zero-allocation steady state
//
// Outboxes, inbox heaps and delivery closures are preallocated per shard
// pair at construction; Post appends to a reused slice, the barrier
// exchange moves entries into the destination heap and schedules the
// persistent closure through the kernel's pooled arena, and delivery pops
// the heap — after warm-up, no step of the post → exchange → deliver
// cycle allocates.

// mailEntry is one cross-shard event in flight between barriers.
type mailEntry struct {
	at      Time
	seq     uint64 // per-source posting sequence
	src     int32  // source shard index
	payload any
}

// mailLess is the (time, seq, shard) commit order.
func mailLess(a, b mailEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.src < b.src
}

// shardState is one shard's mailbox machinery.
type shardState struct {
	k       *Kernel
	handler func(payload any)
	// out[d] buffers events posted to shard d this window.
	out [][]mailEntry
	// inbox is the pending-mail heap, ordered by mailLess.
	inbox []mailEntry
	// deliver is the persistent commit closure: pops the inbox minimum.
	deliver func()
	postSeq uint64
}

// ShardGroup coordinates K shard kernels under conservative windowed
// synchronization. Construct with NewShardGroup, wire each shard's model
// onto Shard(i), register cross-shard delivery with OnMail, then loop
// StepWindow. Not safe for concurrent use; the group owns its shards'
// goroutines.
type ShardGroup struct {
	shards    []shardState
	lookahead Time

	// Windows counts synchronization rounds executed (windowed mode).
	Windows uint64

	// counts is the per-window fired tally, preallocated so the window
	// loop itself stays allocation-free.
	counts []uint64
	// pool holds the persistent window workers (one channel per worker
	// goroutine for shards 1..K-1, started lazily at the first window
	// and kept so the window loop never spawns). Close releases them.
	pool []chan Time
	wg   sync.WaitGroup
}

// NewShardGroup builds K kernels with per-shard seeds derived from seed
// by the RunParallel stream discipline (shard i's seed is the i-th draw
// of a splitmix64 stream rooted at seed). lookahead is the minimum
// cross-shard latency L: every Post must carry a timestamp at least L
// beyond the posting shard's clock, and must be positive: a window is
// only safe when no event inside it can reach another shard inside it.
func NewShardGroup(k int, seed uint64, lookahead Time) *ShardGroup {
	if k < 1 {
		panic("sim: ShardGroup needs at least 1 shard")
	}
	if !(lookahead > 0) {
		panic("sim: ShardGroup needs a positive lookahead")
	}
	g := &ShardGroup{
		shards:    make([]shardState, k),
		lookahead: lookahead,
		counts:    make([]uint64, k),
	}
	root := NewRNG(seed)
	for i := range g.shards {
		s := &g.shards[i]
		s.k = NewKernel(root.Uint64())
		s.out = make([][]mailEntry, k)
		s.deliver = func() { g.commit(s) }
	}
	return g
}

// NumShards returns K.
func (g *ShardGroup) NumShards() int { return len(g.shards) }

// Shard returns shard i's kernel. During Run the kernel must only be
// touched from events executing on it (one kernel, one goroutine).
func (g *ShardGroup) Shard(i int) *Kernel { return g.shards[i].k }

// OnMail installs shard i's cross-shard delivery handler. The handler
// runs on shard i's kernel at the posted timestamp (read it via
// Shard(i).Now()) and receives the posted payload.
func (g *ShardGroup) OnMail(i int, fn func(payload any)) {
	g.shards[i].handler = fn
}

// Post sends a cross-shard event from shard src to shard dst, arriving
// at absolute time at. Call it only from an event executing on shard
// src. The lookahead contract is enforced: at must be >= src's clock
// plus the group lookahead, otherwise the conservative window that is
// already running could have missed it — a model bug, so it panics.
//
//viator:noalloc
func (g *ShardGroup) Post(src, dst int, at Time, payload any) {
	s := &g.shards[src]
	if at < s.k.Now()+g.lookahead {
		//viator:alloc-ok panic path: lookahead violation is a model bug, never taken in a valid run
		panic(fmt.Sprintf("sim: cross-shard post at %v violates lookahead %v from now %v", at, g.lookahead, s.k.Now()))
	}
	s.out[dst] = append(s.out[dst], mailEntry{at: at, seq: s.postSeq, src: int32(src), payload: payload})
	s.postSeq++
}

// commit pops the destination's earliest pending mail and hands it to
// the handler — the body of the persistent per-shard delivery closure.
//
//viator:noalloc
func (s *shardState) commit() {
	e := s.popInbox()
	s.handler(e.payload)
}

// commit is invoked through the group so the closure captures only the
// shard pointer created at construction.
//
//viator:noalloc
func (g *ShardGroup) commit(s *shardState) { s.commit() }

// pushInbox inserts e into the pending-mail heap.
//
//viator:noalloc
func (s *shardState) pushInbox(e mailEntry) {
	s.inbox = append(s.inbox, e)
	i := len(s.inbox) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !mailLess(s.inbox[i], s.inbox[p]) {
			break
		}
		s.inbox[i], s.inbox[p] = s.inbox[p], s.inbox[i]
		i = p
	}
}

// popInbox removes and returns the heap minimum.
//
//viator:noalloc
func (s *shardState) popInbox() mailEntry {
	h := s.inbox
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = mailEntry{} // clear the payload reference
	s.inbox = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && mailLess(h[r], h[l]) {
			m = r
		}
		if !mailLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return e
}

// exchange is the barrier step: move every outbox entry into its
// destination's inbox heap and schedule the destination's persistent
// delivery closure at the entry's timestamp. Iteration order (source
// ascending, then posting order) is deterministic; the inbox heap, not
// the scheduling order, decides which entry each commit pops, so the
// commit order is exactly mailLess whatever the interleaving.
//
//viator:noalloc
func (g *ShardGroup) exchange() {
	for src := range g.shards {
		s := &g.shards[src]
		for dst := range s.out {
			box := s.out[dst]
			if len(box) == 0 {
				continue
			}
			d := &g.shards[dst]
			for i := range box {
				d.pushInbox(box[i])
				d.k.At(box[i].at, d.deliver)
				box[i] = mailEntry{} // release the payload reference
			}
			s.out[dst] = box[:0]
		}
	}
}

// next returns the minimum next event time across shards.
//
//viator:noalloc
func (g *ShardGroup) next() (Time, bool) {
	best, ok := Time(0), false
	for i := range g.shards {
		if t, has := g.shards[i].k.NextEventTime(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// StepWindow executes exactly one synchronization round toward until —
// one conservative window followed by the barrier mail exchange — and
// reports whether
// any work remains at or before until. The group is quiescent between
// calls: no worker goroutine touches shard state, so the caller may
// read any shard read-only before stepping again. That is the seam the
// live server observes sharded runs through.
//
// Determinism: the sequence of windows depends only on the model and
// the horizon, so a caller looping StepWindow(H) to exhaustion — however
// its calls are spaced in wall time — reproduces the exact window
// partition, and therefore the exact mail commit order and destination
// event sequence. Always pass the same horizon for the whole drain;
// varying it between calls changes the final window clamp and with it
// the partition. After StepWindow returns false the caller advances
// each shard clock to the horizon (Shard(i).Run(H)), as a single
// kernel's Run(H) would.
func (g *ShardGroup) StepWindow(until Time) (uint64, bool) {
	t, ok := g.next()
	if !ok || t > until {
		return 0, false
	}
	// Events exactly at the horizon must fire (Run is inclusive), so the
	// final windows run strictly before the next float after until.
	end := math.Nextafter(until, math.Inf(1))
	h := t + g.lookahead
	if !(h < end) {
		h = end
	}
	g.Windows++
	fired := g.runWindow(h)
	g.exchange()
	return fired, true
}

// runShard advances shard i to the window horizon. Each shard writes
// only its own count and state, so workers need no coordination beyond
// the start signal and the completion barrier.
//
//viator:noalloc
func (g *ShardGroup) runShard(i int, h Time) {
	g.counts[i] = g.shards[i].k.RunBefore(h)
}

// startPool launches the persistent window workers: one goroutine for
// each shard but the first, blocking on its own horizon channel (the
// calling goroutine runs shard 0 inline). The pool lives until Close —
// window dispatch is a channel send per worker, no spawning, no
// allocation.
func (g *ShardGroup) startPool() {
	g.pool = make([]chan Time, len(g.shards)-1)
	for i := range g.pool {
		ch := make(chan Time)
		g.pool[i] = ch
		go func(shard int, ch chan Time) {
			for h := range ch {
				g.runShard(shard, h)
				g.wg.Done()
			}
		}(i+1, ch)
	}
}

// Close releases the group's worker goroutines. Call it when done with a
// group that ran parallel windows; the group remains usable afterwards
// (the pool restarts lazily on the next window).
func (g *ShardGroup) Close() {
	for _, ch := range g.pool {
		close(ch)
	}
	g.pool = nil
}

// runWindow runs every shard over [.., h) concurrently, one goroutine a
// shard, and returns the events fired. Shards are state-disjoint inside
// a window, so scheduling cannot influence results.
//
//viator:noalloc
func (g *ShardGroup) runWindow(h Time) uint64 {
	if len(g.shards) > 1 && g.pool == nil {
		g.startPool() //viator:alloc-ok one-time pool build on the first window
	}
	g.wg.Add(len(g.pool))
	for _, ch := range g.pool {
		ch <- h
	}
	g.runShard(0, h)
	g.wg.Wait()
	var total uint64
	for _, c := range g.counts {
		total += c
	}
	return total
}
