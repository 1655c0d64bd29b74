// Package netsim is the packet-level network substrate: store-and-forward
// links with finite bandwidth, propagation delay, bounded output queues,
// random loss, RED early drop and utilization accounting, driven by the
// sim kernel.
//
// Higher layers (ships, baselines, routing) sit on top via a receive
// callback; netsim itself moves bytes and keeps honest queueing statistics,
// which is what makes the feedback experiments (MFP) meaningful.
//
// # Hot-path design
//
// Per-packet work is kept free of allocation and bookkeeping overhead so
// large fleets are simulated at memory speed:
//
//   - Each link owns a persistent transmit state machine: one
//     serialization-done callback and one arrival callback, created on the
//     link's first transmission and rescheduled for every later packet.
//     Sending a packet therefore allocates nothing (the earlier design
//     built two fresh closures per packet), and the links a mobile fleet
//     creates but never uses cost no closures at all.
//   - In-flight packets ride a small per-link FIFO of records; the arrival
//     callback picks the record with the earliest arrival time, so delivery
//     matches the kernel's (time, seq) fire order even if a link's Delay is
//     reconfigured while packets are in flight.
//   - Output queues are ring buffers (head index instead of re-slicing), so
//     sustained traffic reuses one backing array per link.
//   - Transport state exists only for links that carry traffic. A
//     pointer-free per-link index (4 bytes a link) grows with the graph,
//     resynchronized only when topo.Graph.Version reports a structural
//     change, not on every packet. It points into a dense state table that
//     holds just the links that were configured or sent on, so the radio
//     links a mobile fleet creates but never uses cost the index slot and
//     nothing the garbage collector scans.
//   - End-to-end latency has two sink tiers: the default retained-sample
//     stats.Summary (exact percentiles, what paper tables consume) and an
//     optional telemetry.Hist (fixed memory, 0 allocs per delivery,
//     quantiles within 1%) that stress scenarios install so steady-state
//     Deliver never grows a retained slice. A second optional Hist
//     observes per-link queue depth at enqueue.
package netsim

import (
	"fmt"
	"slices"

	"viator/internal/sim"
	"viator/internal/stats"
	"viator/internal/telemetry"
	"viator/internal/topo"
)

// Packet is one transmissible unit. Payload carries higher-layer content
// (shuttle frames, capsule bytes, media chunks) opaquely. Flow is an
// opaque upper-layer tag (0 = untagged) that rides the packet so QoS
// scorecards can attribute the delivery without re-parsing Class.
type Packet struct {
	ID      uint64
	Src     topo.NodeID
	Dst     topo.NodeID
	Size    int // bytes on the wire
	Class   string
	Flow    int32
	TTL     int
	Created sim.Time
	Hops    int
	Payload any
}

// LinkProps describes one link's transmission characteristics.
type LinkProps struct {
	Bandwidth float64 // bytes per second
	Delay     float64 // propagation delay, seconds
	QueueCap  int     // output queue capacity, bytes
	LossProb  float64 // independent per-packet loss probability

	// RED (random early detection) marks congestion before the queue is
	// full: between REDMin and QueueCap bytes of occupancy, packets drop
	// with probability rising linearly to REDMaxP. REDMin <= 0 disables
	// early drop (plain tail drop).
	REDMin  int
	REDMaxP float64
}

// DefaultLinkProps is a 1 MB/s, 1 ms, 64 KB-queue lossless link.
func DefaultLinkProps() LinkProps {
	return LinkProps{Bandwidth: 1 << 20, Delay: 0.001, QueueCap: 64 << 10}
}

// inflightPkt is one packet in transit on a link: serialized onto the wire,
// waiting out its propagation delay.
type inflightPkt struct {
	p        *Packet
	dst      topo.NodeID
	lost     bool
	arriveAt sim.Time
}

type linkState struct {
	props    LinkProps
	queue    []*Packet // output queue ring: live entries are queue[qHead:]
	qHead    int
	qBytes   int
	busy     bool
	busyTime float64
	sent     uint64
	dropped  uint64
	bytes    uint64

	// In-flight FIFO: arrivals pop the earliest-arriving record, matching
	// kernel fire order (see package comment). arrivalsSorted is true
	// while records were appended with non-decreasing arrival times (the
	// steady state); it only goes false when a Delay reconfiguration
	// inverts the order, which switches arrivals to the scanning path.
	inflight       []inflightPkt
	ifHead         int
	arrivalsSorted bool

	// Persistent kernel callbacks — created on the link's first
	// transmission and rescheduled for every later packet, so the
	// transmit path allocates nothing in the steady state and links that
	// never carry a packet cost no closures.
	serialDone func()
	arrive     func()
}

// queued returns the number of packets waiting in the output queue (the
// packet currently on the wire is not queued).
func (ls *linkState) queued() int { return len(ls.queue) - ls.qHead }

// Net binds a kernel and a topology into a packet transport.
type Net struct {
	K *sim.Kernel
	G *topo.Graph

	// linkIdx maps a graph link to its transport state: 0 means the link
	// has none yet (it reads as an idle DefaultLinkProps link), k means
	// links[k-1]. A *linkState is invalid once another link's state is
	// created, since that may move the dense table.
	linkIdx     []int32
	links       []linkState
	topoVersion uint64 // last topo.Graph.Version the link index was synced to
	recv        func(at topo.NodeID, p *Packet)
	nextID      uint64

	// Latency is the default end-to-end latency sink: a retained-sample
	// Summary with exact percentiles, which is what the paper tables
	// depend on. Stress scenarios swap in LatencyHist instead (see
	// Deliver) so steady-state delivery stays allocation-free and memory
	// stays fixed no matter how many packets complete.
	Latency *stats.Summary

	// LatencyHist, when non-nil, replaces Latency as the delivery sink:
	// fixed memory, 0 allocs per delivery, quantiles within 1%.
	LatencyHist *telemetry.Hist

	// QueueHist, when non-nil, observes the output-queue occupancy in
	// bytes (including the packet just queued) on every accepted enqueue —
	// the per-link queue-depth distribution of a run.
	QueueHist *telemetry.Hist

	// Delivered counts packets handed to the receive callback; DroppedQ and
	// DroppedLoss count queue-overflow and random-loss drops respectively;
	// DroppedRED counts random-early-detection drops. DroppedRoute counts
	// packets the upper layer abandoned mid-path via Drop because routing
	// produced no next hop — a failure the transport cannot see itself.
	Delivered    uint64
	DroppedQ     uint64
	DroppedLoss  uint64
	DroppedTTL   uint64
	DroppedRED   uint64
	DroppedRoute uint64
}

// New creates a transport over g with every link at DefaultLinkProps.
func New(k *sim.Kernel, g *topo.Graph) *Net {
	n := &Net{K: k, G: g, Latency: stats.NewSummary()}
	n.syncLinks()
	return n
}

// ensureLinks resynchronizes the link index only when the topology has
// structurally changed since the last sync — an integer compare on the
// per-packet path instead of a scan.
func (n *Net) ensureLinks() {
	if n.topoVersion != n.G.Version() {
		n.syncLinks()
	}
}

// syncLinks grows the per-link index to match the graph; topologies may
// add links at runtime (mobility, metamorphosis). The index grows to the
// graph's link count in one step, so a first send after a large topology
// build allocates it once instead of re-copying it at every append growth
// step. New links get no state until they are configured or sent on.
func (n *Net) syncLinks() {
	if k, old := n.G.Links(), len(n.linkIdx); old < k {
		n.linkIdx = slices.Grow(n.linkIdx, k-old)[:k]
		clear(n.linkIdx[old:])
	}
	n.topoVersion = n.G.Version()
}

// state returns link li's transport state, creating it at
// DefaultLinkProps on the link's first configuration or send.
//
//viator:noalloc
func (n *Net) state(li int) *linkState {
	if ls := n.lookup(li); ls != nil {
		return ls
	}
	n.links = append(n.links, linkState{props: DefaultLinkProps(), arrivalsSorted: true}) //viator:alloc-ok amortized growth of the dense table, once per link that is configured or carries traffic
	n.linkIdx[li] = int32(len(n.links))
	return &n.links[len(n.links)-1]
}

// lookup returns link li's transport state, or nil when the link has
// never been configured or sent on.
//
//viator:noalloc
func (n *Net) lookup(li int) *linkState {
	n.ensureLinks()
	if k := n.linkIdx[li]; k != 0 {
		return &n.links[k-1]
	}
	return nil
}

// SetAllLinkProps overrides every current link's properties. Links the
// graph gains afterwards start at DefaultLinkProps.
func (n *Net) SetAllLinkProps(p LinkProps) {
	n.ensureLinks()
	// Every link without state is about to get one: grow the dense table
	// once instead of at each append growth step.
	n.links = slices.Grow(n.links, len(n.linkIdx)-len(n.links))
	for li := range n.linkIdx {
		n.state(li).props = p
	}
}

// OnReceive installs the upper-layer delivery callback.
func (n *Net) OnReceive(fn func(at topo.NodeID, p *Packet)) { n.recv = fn }

// NewPacket allocates a packet stamped with the current time and a fresh ID.
func (n *Net) NewPacket(src, dst topo.NodeID, size int, class string, payload any) *Packet {
	n.nextID++
	return &Packet{
		ID: n.nextID, Src: src, Dst: dst, Size: size, Class: class,
		TTL: 64, Created: n.K.Now(), Payload: payload,
	}
}

// Send transmits p over the first up link from→to. It returns false when
// no such link exists or the packet was dropped at enqueue.
//
//viator:noalloc
func (n *Net) Send(from, to topo.NodeID, p *Packet) bool {
	li := n.G.FindLink(from, to)
	if li == -1 {
		return false
	}
	return n.SendOnLink(li, p)
}

// SendOnLink enqueues p on link li. Queue overflow drops the packet
// (tail drop, or probabilistically earlier under RED).
//
// Head-of-line exemption: a packet is accepted regardless of size when the
// link is idle — it goes straight onto the wire and never occupies the
// queue, so a link can always carry a packet larger than its QueueCap,
// exactly as a real store-and-forward interface serializes a frame it has
// already committed to. The exemption is bounded to the idle case: while
// the link is busy, an oversize packet is tail-dropped like any other
// overflow instead of slipping past the cap, and RED never fires for it
// only because a zero-occupancy queue is by definition below REDMin.
//
//viator:noalloc
func (n *Net) SendOnLink(li int, p *Packet) bool {
	if p.TTL <= 0 {
		n.DroppedTTL++
		return false
	}
	ls := n.state(li)
	if ls.qBytes+p.Size > ls.props.QueueCap && (ls.busy || ls.queued() > 0) {
		ls.dropped++
		n.DroppedQ++
		return false
	}
	if ls.props.REDMin > 0 && ls.qBytes > ls.props.REDMin {
		frac := float64(ls.qBytes-ls.props.REDMin) / float64(ls.props.QueueCap-ls.props.REDMin)
		if frac > 1 {
			frac = 1
		}
		if n.K.Rand.Bool(frac * ls.props.REDMaxP) {
			ls.dropped++
			n.DroppedRED++
			return false
		}
	}
	ls.queue = append(ls.queue, p)
	ls.qBytes += p.Size
	if n.QueueHist != nil {
		n.QueueHist.Observe(float64(ls.qBytes))
	}
	if !ls.busy {
		n.startTx(li)
	}
	return true
}

// startTx pulls the next queued packet onto the wire: it burns the
// serialization time, decides loss up front (so the RNG draw order is
// fixed at launch), records the in-flight packet and re-arms the link's
// two persistent callbacks.
//
//viator:noalloc
func (n *Net) startTx(li int) {
	ls := &n.links[n.linkIdx[li]-1]
	if ls.qHead == len(ls.queue) {
		ls.queue = ls.queue[:0]
		ls.qHead = 0
		ls.busy = false
		return
	}
	ls.busy = true
	p := ls.queue[ls.qHead]
	ls.queue[ls.qHead] = nil
	ls.qHead++
	ls.qBytes -= p.Size
	// Compact the ring when the dead prefix dominates, so a link that
	// never drains (a saturated bottleneck) keeps a bounded backing array
	// instead of growing by one slot per packet forever.
	if ls.qHead > 32 && ls.qHead > len(ls.queue)/2 {
		n := copy(ls.queue, ls.queue[ls.qHead:])
		clear(ls.queue[n:])
		ls.queue = ls.queue[:n]
		ls.qHead = 0
	}
	txTime := float64(p.Size) / ls.props.Bandwidth
	ls.busyTime += txTime
	dst := n.G.Link(li).To
	lost := n.K.Rand.Bool(ls.props.LossProb)
	delay := ls.props.Delay
	arriveAt := n.K.Now() + txTime + delay
	if last := len(ls.inflight) - 1; last >= ls.ifHead && arriveAt < ls.inflight[last].arriveAt {
		// A Delay reconfiguration let this packet overtake one already in
		// flight; arrivals must scan until the window drains.
		ls.arrivalsSorted = false
	}
	ls.inflight = append(ls.inflight, inflightPkt{p: p, dst: dst, lost: lost, arriveAt: arriveAt})
	if ls.serialDone == nil {
		ls.serialDone = func() { n.startTx(li) } //viator:alloc-ok once per link, on its first transmission; reused for every later packet
		ls.arrive = func() { n.arriveOn(li) }    //viator:alloc-ok once per link, on its first transmission; reused for every later packet
	}
	// Serialization done: link free for the next packet...
	n.K.After(txTime, ls.serialDone)
	// ...and this packet arrives after propagation, unless lost.
	n.K.After(txTime+delay, ls.arrive)
}

// arriveOn completes the earliest-arriving in-flight packet on link li.
// In the steady state arrivals are in launch order and this pops the FIFO
// head; only after a mid-flight Delay reconfiguration does it scan the
// window for the earliest record. ls is dead once the receive callback
// runs: a forwarding send there may create another link's state.
//
//viator:noalloc
func (n *Net) arriveOn(li int) {
	ls := &n.links[n.linkIdx[li]-1]
	best := ls.ifHead
	if !ls.arrivalsSorted {
		for i := ls.ifHead + 1; i < len(ls.inflight); i++ {
			if ls.inflight[i].arriveAt < ls.inflight[best].arriveAt {
				best = i
			}
		}
	}
	rec := ls.inflight[best]
	if best == ls.ifHead {
		ls.inflight[best] = inflightPkt{}
		ls.ifHead++
		switch {
		case ls.ifHead == len(ls.inflight):
			ls.inflight = ls.inflight[:0]
			ls.ifHead = 0
			ls.arrivalsSorted = true
		case ls.ifHead > 32 && ls.ifHead > len(ls.inflight)/2:
			// Bound the backing array on links that never fully drain.
			m := copy(ls.inflight, ls.inflight[ls.ifHead:])
			clear(ls.inflight[m:])
			ls.inflight = ls.inflight[:m]
			ls.ifHead = 0
		}
	} else {
		copy(ls.inflight[best:], ls.inflight[best+1:])
		ls.inflight[len(ls.inflight)-1] = inflightPkt{}
		ls.inflight = ls.inflight[:len(ls.inflight)-1]
	}
	if rec.lost {
		n.DroppedLoss++
		return
	}
	ls.sent++
	ls.bytes += uint64(rec.p.Size)
	rec.p.Hops++
	rec.p.TTL--
	n.Delivered++
	if n.recv != nil {
		n.recv(rec.dst, rec.p)
	}
}

// Deliver records the end-to-end latency of a packet that reached its
// final destination. Upper layers call it once per completed journey.
// With LatencyHist installed the steady state is allocation-free: a
// histogram observe instead of growing the Summary's retained sample by
// one float per delivered packet.
//
//viator:noalloc
func (n *Net) Deliver(p *Packet) {
	if n.LatencyHist != nil {
		n.LatencyHist.Observe(n.K.Now() - p.Created)
	} else {
		n.Latency.Add(n.K.Now() - p.Created)
	}
}

// Drop finalizes a packet the upper layer cannot forward because routing
// produced no next hop. Transport-level failures (queue overflow, RED,
// loss, TTL) are recorded by Send/arrival themselves, and Send reports a
// missing link by returning false; this is the one failure only the
// routing layer can see, and recording it keeps the end-to-end invariant
// that every injected packet lands in exactly one of Deliver, a drop
// counter or a refused Send.
//
//viator:noalloc
func (n *Net) Drop(p *Packet) {
	n.DroppedRoute++
}

// Utilization returns link li's busy fraction over elapsed simulated time.
func (n *Net) Utilization(li int) float64 {
	ls := n.lookup(li)
	if ls == nil || n.K.Now() == 0 {
		return 0
	}
	return ls.busyTime / n.K.Now()
}

// TotalBytes returns bytes successfully carried across all links — the
// backbone-load metric for the fusion/MFP experiments.
func (n *Net) TotalBytes() uint64 {
	var total uint64
	for i := range n.links {
		total += n.links[i].bytes
	}
	return total
}

// String gives a quick transport digest.
func (n *Net) String() string {
	return fmt.Sprintf("netsim: delivered=%d dropQ=%d dropLoss=%d dropTTL=%d bytes=%d",
		n.Delivered, n.DroppedQ, n.DroppedLoss, n.DroppedTTL, n.TotalBytes())
}
