package sim

// cancelled reports whether the event is currently cancelled and unfired.
// Once the event's slot is recycled (after firing or after a cancelled
// event's timestamp passes) it reports false.
func (e Event) cancelled() bool {
	if e.k == nil || e.id < 0 || int(e.id) >= len(e.k.slots) {
		return false
	}
	s := &e.k.slots[e.id]
	return s.gen == e.gen && s.dead
}

// run drains the group to until by looping StepWindow, then sets every
// shard clock to until, as a single kernel's Run(until) would. It
// returns the total number of events fired across shards.
func (g *ShardGroup) run(until Time) uint64 {
	var fired uint64
	for {
		n, more := g.StepWindow(until)
		fired += n
		if !more {
			break
		}
	}
	for i := range g.shards {
		fired += g.shards[i].k.Run(until)
	}
	return fired
}

// fired returns the total events fired across all shards.
func (g *ShardGroup) fired() uint64 {
	var total uint64
	for i := range g.shards {
		total += g.shards[i].k.fired
	}
	return total
}
