package netsim

import "viator/internal/sim"

// Trunk is a point-to-point long-haul link whose far end lives on another
// shard. It reuses the link transmit discipline — finite bandwidth, a
// bounded output queue with tail drop and RED, loss decided at launch —
// but where an intra-shard link schedules a local arrival event, a trunk
// has no local far end to schedule on: when serialization completes it
// computes the absolute arrival time (serialization done + propagation
// Delay) and hands (packet, arrival time) to an egress callback, which
// the sharded runner wires to a ShardGroup mailbox post. The propagation
// Delay is therefore exactly the cross-shard lookahead the conservative
// executor synchronizes on: every egress fires at serialization-done
// time with an arrival at least Delay later, so the minimum Delay across
// all trunks bounds how soon one shard can affect another.
//
// A Trunk belongs to its source shard's kernel and is driven only by
// events on that kernel, so the per-shard single-goroutine discipline is
// preserved; nothing here is safe for concurrent use.
type Trunk struct {
	K *sim.Kernel

	props  LinkProps
	egress func(p *Packet, arriveAt sim.Time)

	// Output queue ring: live entries are queue[qHead:].
	queue  []*Packet
	qHead  int
	qBytes int

	// cur is the packet being serialized onto the wire; curLost was drawn
	// at launch so the RNG order is fixed regardless of queue timing.
	cur     *Packet
	curLost bool
	busy    bool

	// serialDone is the single persistent kernel callback — created at
	// construction, re-armed per packet, so the transmit path never
	// allocates.
	serialDone func()

	// Counters mirror the Net drop taxonomy for the trunk's share of
	// traffic.
	Sent        uint64
	Bytes       uint64
	DroppedQ    uint64
	DroppedRED  uint64
	DroppedLoss uint64
	DroppedTTL  uint64
	BusyTime    float64
}

// NewTrunk creates a trunk on kernel k with properties p. egress receives
// every successfully transmitted packet together with its absolute
// arrival time at the far shard; it is invoked at serialization-done
// time, so arriveAt is always at least p.Delay beyond the kernel clock.
func NewTrunk(k *sim.Kernel, p LinkProps, egress func(p *Packet, arriveAt sim.Time)) *Trunk {
	t := &Trunk{K: k, props: p, egress: egress}
	t.serialDone = func() { t.finishTx() }
	return t
}

// Queued returns the number of packets waiting in the output queue.
func (t *Trunk) Queued() int { return len(t.queue) - t.qHead }

// Send enqueues p for cross-shard transmission. The acceptance rules are
// those of Net.SendOnLink: TTL exhaustion drops, tail drop past QueueCap
// with the head-of-line exemption for an idle link, RED early drop
// between REDMin and QueueCap.
//
//viator:noalloc
func (t *Trunk) Send(p *Packet) bool {
	if p.TTL <= 0 {
		t.DroppedTTL++
		return false
	}
	if t.qBytes+p.Size > t.props.QueueCap && (t.busy || t.Queued() > 0) {
		t.DroppedQ++
		return false
	}
	if t.props.REDMin > 0 && t.qBytes > t.props.REDMin {
		frac := float64(t.qBytes-t.props.REDMin) / float64(t.props.QueueCap-t.props.REDMin)
		if frac > 1 {
			frac = 1
		}
		if t.K.Rand.Bool(frac * t.props.REDMaxP) {
			t.DroppedRED++
			return false
		}
	}
	t.queue = append(t.queue, p)
	t.qBytes += p.Size
	if !t.busy {
		t.startTx()
	}
	return true
}

// startTx pulls the next queued packet onto the wire: burn the
// serialization time, decide loss up front, re-arm the persistent
// callback.
//
//viator:noalloc
func (t *Trunk) startTx() {
	if t.qHead == len(t.queue) {
		t.queue = t.queue[:0]
		t.qHead = 0
		t.busy = false
		return
	}
	t.busy = true
	p := t.queue[t.qHead]
	t.queue[t.qHead] = nil
	t.qHead++
	t.qBytes -= p.Size
	// Compact the ring when the dead prefix dominates (same bound as the
	// intra-shard link queue).
	if t.qHead > 32 && t.qHead > len(t.queue)/2 {
		n := copy(t.queue, t.queue[t.qHead:])
		clear(t.queue[n:])
		t.queue = t.queue[:n]
		t.qHead = 0
	}
	txTime := float64(p.Size) / t.props.Bandwidth
	t.BusyTime += txTime
	t.cur = p
	t.curLost = t.K.Rand.Bool(t.props.LossProb)
	t.K.After(txTime, t.serialDone)
}

// finishTx completes the serialization of the current packet: a lost
// packet vanishes into the counter, a surviving one is stamped with one
// hop and handed to egress with its far-shard arrival time, and the next
// queued packet (if any) goes onto the wire.
//
//viator:noalloc
func (t *Trunk) finishTx() {
	p, lost := t.cur, t.curLost
	t.cur = nil
	if lost {
		t.DroppedLoss++
	} else {
		t.Sent++
		t.Bytes += uint64(p.Size)
		p.Hops++
		p.TTL--
		t.egress(p, t.K.Now()+t.props.Delay)
	}
	t.startTx()
}
