// Package trace is a bounded structured event log for simulations: a
// ring buffer of timestamped events, read by subscribers through
// EachSince, cheap enough to leave enabled in experiments.
package trace

import "fmt"

// Event is one recorded occurrence.
type Event struct {
	Time     float64
	Category string
	Message  string
}

// Log is a fixed-capacity ring buffer of events.
type Log struct {
	buf   []Event
	next  int
	count uint64
	// Enabled switches recording globally; a disabled log drops events.
	Enabled bool
}

// New creates a log holding the most recent capacity events.
func New(capacity int) *Log {
	if capacity < 1 {
		panic("trace: capacity must be positive")
	}
	return &Log{buf: make([]Event, 0, capacity), Enabled: true}
}

// Add records an event.
func (l *Log) Add(t float64, category, format string, args ...any) {
	if !l.Enabled {
		return
	}
	e := Event{Time: t, Category: category, Message: fmt.Sprintf(format, args...)}
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
		l.next = (l.next + 1) % cap(l.buf)
	}
	l.count++
}

// EachSince is the ring's subscriber hook: it calls f for every retained
// event whose ordinal (0-based position in the full recorded stream) is
// at least `from`, oldest-first, and returns the new stream total to pass
// as `from` next time. A subscriber that polls at a bounded lag sees
// every event exactly once; one that falls more than the ring capacity
// behind silently loses the evicted prefix — the returned total minus
// the previous cursor minus the number of callbacks tells it how many. The log is not
// safe for concurrent use: call EachSince from the goroutine that Adds
// (the simulation driver polls at barrier boundaries).
func (l *Log) EachSince(from uint64, f func(Event)) uint64 {
	total := l.count
	retained := uint64(len(l.buf))
	start := total - retained // ordinal of the oldest retained event
	if from < start {
		from = start
	}
	for ord := from; ord < total; ord++ {
		var idx uint64
		if len(l.buf) < cap(l.buf) {
			idx = ord // nothing evicted yet: ordinal == index
		} else {
			idx = (uint64(l.next) + (ord - start)) % uint64(cap(l.buf))
		}
		f(l.buf[idx])
	}
	return total
}
