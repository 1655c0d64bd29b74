package sim

import "testing"

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

// StepNext fires exactly the earliest live event if its timestamp is at
// or before until, reporting whether one fired. Cancelled slots at or
// before until are consumed silently on the way. Like RunBefore it never
// advances the clock on its own.
func (k *Kernel) StepNext(until Time) bool {
	for len(k.heap) > 0 {
		id := k.heap[0]
		s := &k.slots[id]
		if s.at > until {
			return false
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
		return true
	}
	return false
}

func TestKernelStepNext(t *testing.T) {
	k := NewKernel(1)
	var fired []float64
	ev := k.At(1, func() { fired = append(fired, 1) })
	k.At(2, func() { fired = append(fired, 2) })
	k.At(9, func() { fired = append(fired, 9) })
	ev.Cancel()
	// First step consumes the cancelled slot silently and fires t=2.
	if !k.StepNext(5) {
		t.Fatal("StepNext found nothing <= 5")
	}
	if k.Now() != 2 || len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("after step: now=%v fired=%v", k.Now(), fired)
	}
	// Next event (t=9) is beyond until: no fire, no clock movement.
	if k.StepNext(5) {
		t.Fatal("StepNext fired beyond until")
	}
	if k.Now() != 2 {
		t.Fatalf("clock moved to %v", k.Now())
	}
}
