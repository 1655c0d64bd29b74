package stats

import (
	"testing"

	"viator/internal/allocpin"
)

// Counter is a cheap monotonically adjustable tally keyed by name, used
// for event accounting across a simulation. A name is resolved to a Key
// once and bumped through Add, which costs one bounds-checked slice
// increment instead of a map lookup per event.
type Counter struct {
	idx  map[string]Key
	vals []float64
}

// Key is a stable integer handle to one named counter, resolved once via
// Counter.Key and then usable with Add on the per-event path.
type Key int

// NewCounter returns an empty counter set.
func NewCounter() *Counter {
	return &Counter{idx: make(map[string]Key)}
}

// Key resolves name to its integer handle, registering the counter at zero
// on first use.
func (c *Counter) Key(name string) Key {
	if k, ok := c.idx[name]; ok {
		return k
	}
	k := Key(len(c.vals))
	c.idx[name] = k
	c.vals = append(c.vals, 0)
	return k
}

// Add adds delta to the counter behind k — the allocation-free, map-free
// fast path for per-event accounting.
func (c *Counter) Add(k Key, delta float64) { c.vals[k] += delta }

// get reads the named counter, 0 if it was never registered.
func get(c *Counter, name string) float64 {
	if k, ok := c.idx[name]; ok {
		return c.vals[k]
	}
	return 0
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	a, b := c.Key("a"), c.Key("b")
	if a == b {
		t.Fatal("distinct names share a key")
	}
	c.Add(a, 1)
	c.Add(b, 2)
	c.Add(a, 3)
	if get(c, "a") != 4 || get(c, "b") != 2 || get(c, "zzz") != 0 {
		t.Fatalf("a=%v b=%v", get(c, "a"), get(c, "b"))
	}
}

func TestCounterFastPath(t *testing.T) {
	c := NewCounter()
	k := c.Key("pkts")
	if c.Key("pkts") != k {
		t.Fatal("Key not stable across calls")
	}
	c.Add(k, 2)
	c.Add(k, 3)
	if get(c, "pkts") != 5 {
		t.Fatalf("Get = %v after Add, want 5", get(c, "pkts"))
	}
	// Registration alone makes the name readable at zero.
	c.Key("reserved")
	if get(c, "reserved") != 0 {
		t.Fatalf("registered counter not zero: %v", get(c, "reserved"))
	}
}

func TestCounterAddAllocFree(t *testing.T) {
	c := NewCounter()
	k := c.Key("hot")
	allocpin.Max(t, 1000, 0, func() { c.Add(k, 1) })
}
