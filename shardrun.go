package viator

import (
	"strings"
	"sync/atomic"

	"viator/internal/netsim"
	"viator/internal/shuttle"
	"viator/internal/sim"
	"viator/internal/topo"
)

// The district side of the shard executor (see scenario.go): the
// shard-kernel count, the trunk mesh between districts and the
// cross-district mail path.

// shardOverride is the process-wide execution override for the number of
// shard kernels (the viatorbench -shards flag). 0 means "spec default"
// (one kernel per district). Values that do not divide the district
// count are ignored. Atomic because replicate workers read it
// concurrently; it is an execution knob and never affects output at a
// fixed value.
var shardOverride atomic.Int64

// SetShardOverride sets the global shard-kernel override (0 restores the
// spec default). StartScenario, Scenario.Run and RunScenarioReplicated
// read it once per call. It applies only to specs that declare
// shards > 1; an unsharded spec always runs its one district on a
// one-shard group seeded with the run seed.
func SetShardOverride(k int) { shardOverride.Store(int64(k)) }

// ShardOverride returns the current override (0 = spec default).
func ShardOverride() int { return int(shardOverride.Load()) }

// shardKernels resolves how many shard kernels a run of sc uses under the
// process override.
func (sc *Scenario) shardKernels() int { return sc.kernelsFor(ShardOverride()) }

// kernelsFor resolves a requested shard-kernel count k against the spec:
// k when it divides the district count, else (k <= 0 included) one
// kernel per district. An unsharded spec resolves to 1 for any k.
func (sc *Scenario) kernelsFor(k int) int {
	d := max(1, sc.Spec.Shards)
	if k <= 0 || k > d || d%k != 0 {
		return d
	}
	return k
}

// armTrunks wires the trunk mesh: one trunk per ordered district pair,
// owned by the source district's kernel; transmit completion posts the
// packet to the destination kernel's mailbox. One district has no pair,
// so it wires no trunk (and its spec declares none).
func (r *fleetRun) armTrunks() {
	tr := r.sc.Spec.Trunk
	for _, d := range r.ds {
		for dd := range r.ds {
			if dd == d.id {
				continue
			}
			props := netsim.LinkProps{Bandwidth: tr.Bandwidth, Delay: tr.Delay, QueueCap: tr.QueueCap}
			srcK, dstK := d.id/r.dpk, dd/r.dpk
			d.trunks[dd] = netsim.NewTrunk(d.n.K, props, func(p *netsim.Packet, at sim.Time) {
				r.group.Post(srcK, dstK, at, p)
			})
		}
	}
	for ki := 0; ki < r.group.NumShards(); ki++ {
		r.group.OnMail(ki, func(payload any) { r.deliverCross(payload.(*netsim.Packet)) })
	}
}

// sendCross launches a shuttle from district d's local ship src to the
// global ship gdst over the trunk mesh. Mirrors SendShuttle: scored as
// sent on the source district's overlay flow at launch, as delivered on
// the destination district's when the trunk mail lands.
func (r *fleetRun) sendCross(d *district, src, gdst int, overlay string) {
	n := d.n
	sh := shuttle.New(n.allocShuttleID(), shuttle.Data, int32(src), int32(gdst), n.Ships[src].Class)
	sh.Shape = n.Ships[src].Shape
	d.tel.QoS.Sent(d.tel.flowFor(overlay))
	pkt := n.Net.NewPacket(topo.NodeID(src), topo.NodeID(gdst), sh.WireSize(), "xshard:"+overlay, sh)
	if !d.trunks[gdst/r.per].Send(pkt) {
		n.LostShuttles++
	}
}

// deliverCross lands a trunk packet at its destination district: the
// transport records the end-to-end latency (district clocks share one
// virtual timeline, so created-to-now spans the trunk hop exactly), the
// destination's scorecard scores the overlay flow, and the shuttle docks.
func (r *fleetRun) deliverCross(pkt *netsim.Packet) {
	d := r.ds[int(pkt.Dst)/r.per]
	d.n.Net.Deliver(pkt)
	overlay := strings.TrimPrefix(pkt.Class, "xshard:")
	d.tel.QoS.Delivered(d.tel.flowFor(overlay), d.n.K.Now()-pkt.Created)
	d.n.dock(int(pkt.Dst)%r.per, pkt.Payload.(*shuttle.Shuttle))
}
