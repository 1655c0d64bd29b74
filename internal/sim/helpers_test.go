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

// fired returns the total events fired across all shards.
func (g *ShardGroup) fired() uint64 {
	var total uint64
	for i := range g.shards {
		total += g.shards[i].k.fired
	}
	return total
}
