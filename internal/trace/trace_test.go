package trace

import "testing"

// Events returns retained events oldest-first.
func (l *Log) Events() []Event {
	if len(l.buf) < cap(l.buf) {
		out := make([]Event, len(l.buf))
		copy(out, l.buf)
		return out
	}
	out := make([]Event, 0, cap(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

func TestAddAndEvents(t *testing.T) {
	l := New(10)
	l.Add(1, "dock", "ship %d", 7)
	l.Add(2, "role", "switch")
	ev := l.Events()
	if len(ev) != 2 || ev[0].Message != "ship 7" || ev[1].Category != "role" {
		t.Fatalf("events = %v", ev)
	}
	if l.count != 2 {
		t.Fatalf("total = %d", l.count)
	}
}

func TestRingEviction(t *testing.T) {
	l := New(3)
	for i := 0; i < 5; i++ {
		l.Add(float64(i), "c", "e%d", i)
	}
	ev := l.Events()
	if len(ev) != 3 {
		t.Fatalf("retained = %d", len(ev))
	}
	if ev[0].Message != "e2" || ev[2].Message != "e4" {
		t.Fatalf("wrong retention order: %v", ev)
	}
	if l.count != 5 {
		t.Fatalf("total = %d", l.count)
	}
}

// collectSince drains EachSince into a message slice.
func collectSince(l *Log, from uint64) ([]string, uint64) {
	var msgs []string
	next := l.EachSince(from, func(e Event) { msgs = append(msgs, e.Message) })
	return msgs, next
}

func TestEachSinceIncremental(t *testing.T) {
	l := New(4)
	l.Add(1, "c", "e0")
	l.Add(2, "c", "e1")
	msgs, cur := collectSince(l, 0)
	if len(msgs) != 2 || msgs[0] != "e0" || cur != 2 {
		t.Fatalf("first drain: msgs=%v cur=%d", msgs, cur)
	}
	// No new events: the cursor round-trips with no callbacks.
	msgs, cur = collectSince(l, cur)
	if len(msgs) != 0 || cur != 2 {
		t.Fatalf("idle drain: msgs=%v cur=%d", msgs, cur)
	}
	l.Add(3, "c", "e2")
	msgs, cur = collectSince(l, cur)
	if len(msgs) != 1 || msgs[0] != "e2" || cur != 3 {
		t.Fatalf("incremental drain: msgs=%v cur=%d", msgs, cur)
	}
}

func TestEachSinceAcrossEviction(t *testing.T) {
	l := New(3)
	l.Add(0, "c", "e0")
	_, cur := collectSince(l, 0) // cursor at 1
	for i := 1; i < 6; i++ {
		l.Add(float64(i), "c", "e"+string(rune('0'+i)))
	}
	// Events e1..e5 happened but only e3..e5 are retained: the lagging
	// subscriber sees exactly the retained suffix, oldest first.
	msgs, next := collectSince(l, cur)
	if len(msgs) != 3 || msgs[0] != "e3" || msgs[2] != "e5" {
		t.Fatalf("evicted drain: %v", msgs)
	}
	if next != l.count {
		t.Fatalf("cursor %d != total %d", next, l.count)
	}
}

func TestEachSinceAgreesWithEvents(t *testing.T) {
	for _, n := range []int{1, 3, 4, 9} {
		l := New(4)
		for i := 0; i < n; i++ {
			l.Add(float64(i), "c", "m")
		}
		var viaSince []Event
		l.EachSince(0, func(e Event) { viaSince = append(viaSince, e) })
		want := l.Events()
		if len(viaSince) != len(want) {
			t.Fatalf("n=%d: EachSince %d events, Events %d", n, len(viaSince), len(want))
		}
		for i := range want {
			if viaSince[i] != want[i] {
				t.Fatalf("n=%d: event %d differs: %v vs %v", n, i, viaSince[i], want[i])
			}
		}
	}
}

func TestDisabled(t *testing.T) {
	l := New(4)
	l.Enabled = false
	l.Add(1, "c", "dropped")
	if l.count != 0 || len(l.Events()) != 0 {
		t.Fatal("disabled log recorded")
	}
}
