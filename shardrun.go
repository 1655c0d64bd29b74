package viator

import (
	"strings"
	"sync/atomic"

	"viator/internal/netsim"
	"viator/internal/ployon"
	"viator/internal/shuttle"
	"viator/internal/sim"
	"viator/internal/topo"
)

// The shard executor of the district compiler (see scenario.go): the
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
// spec default). It applies only to specs that declare shards > 1;
// unsharded specs always run one district on a plain kernel.
func SetShardOverride(k int) { shardOverride.Store(int64(k)) }

// ShardOverride returns the current override (0 = spec default).
func ShardOverride() int { return int(shardOverride.Load()) }

// shardKernels resolves how many shard kernels a run of sc uses: 0 for
// unsharded specs (plain kernel), otherwise a divisor of the district
// count — the override when valid, else one kernel per district.
func (sc *Scenario) shardKernels() int {
	d := sc.Spec.Shards
	if d <= 1 {
		return 0
	}
	k := ShardOverride()
	if k <= 0 || k > d || d%k != 0 {
		return d
	}
	return k
}

// armTrunks wires the trunk mesh: one trunk per ordered district pair,
// owned by the source district's kernel; transmit completion posts the
// packet to the destination kernel's mailbox.
func (r *fleetRun) armTrunks() {
	sp := r.sc.Spec
	props := netsim.LinkProps{Bandwidth: sp.Trunk.Bandwidth, Delay: sp.Trunk.Delay, QueueCap: sp.Trunk.QueueCap}
	for _, d := range r.ds {
		for dd := range r.ds {
			if dd == d.id {
				continue
			}
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
	sh.DstClass = ployon.Class(gdst % int(ployon.NumClasses))
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

// settle advances every shard clock to the horizon after StepWindow has
// drained the event queues — the trailing clock sweep ShardGroup.Run
// performs itself.
func (r *fleetRun) settle() {
	for i := 0; i < r.group.NumShards(); i++ {
		r.group.Shard(i).Run(r.sc.Spec.Horizon)
	}
}
