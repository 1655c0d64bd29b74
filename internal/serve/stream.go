package serve

import (
	"sync"
	"sync/atomic"
)

// The live JSONL stream fabric: each run's driver publishes one
// pre-rendered batch of lines per snapshot publication, and every
// subscriber (one per open /api/v1/stream request) receives the batches
// over a buffered channel. Publication never blocks the sim driver — a
// subscriber that cannot keep up drops whole batches, which the broker
// counts server-wide for /metrics, trading completeness for the
// determinism contract (a slow reader must not be able to stall, and
// thereby perturb the timing of, a run; it cannot perturb results either
// way, but an unbounded stall would make the server useless).

// subscriber is one attached stream reader.
type subscriber struct {
	ch  chan []byte
	run string // run ID filter; "" receives every run
}

// broker fans published batches out to subscribers.
type broker struct {
	mu   sync.Mutex
	subs map[*subscriber]struct{}
	// dropped counts batches discarded because a subscriber's channel was
	// full, over every subscriber the server has had.
	dropped atomic.Uint64
}

func newBroker() *broker {
	return &broker{subs: make(map[*subscriber]struct{})}
}

// subscribe attaches a reader, optionally filtered to one run ID.
func (b *broker) subscribe(run string) *subscriber {
	sub := &subscriber{ch: make(chan []byte, 64), run: run}
	b.mu.Lock()
	b.subs[sub] = struct{}{}
	b.mu.Unlock()
	return sub
}

// unsubscribe detaches a reader.
func (b *broker) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
}

// subscribers returns the number of attached readers.
func (b *broker) subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// publish hands one batch of stream lines to every matching subscriber,
// dropping (and counting) for any whose buffer is full. The batch is
// immutable after publication; subscribers share the backing bytes.
func (b *broker) publish(run string, batch []byte) {
	if len(batch) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	//viator:maporder-safe each subscriber receives the same immutable batch independently; delivery order across subscribers is unobservable
	for sub := range b.subs {
		if sub.run != "" && sub.run != run {
			continue
		}
		select {
		case sub.ch <- batch:
		default:
			b.dropped.Add(1)
		}
	}
}
