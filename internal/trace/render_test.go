package trace

import (
	"fmt"
	"strings"
)

// Filter returns retained events of one category, oldest-first.
func (l *Log) Filter(category string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Category == category {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders retained events as text.
func (l *Log) Dump() string {
	var b strings.Builder
	for _, e := range l.Events() {
		fmt.Fprintf(&b, "%10.4f [%s] %s\n", e.Time, e.Category, e.Message)
	}
	return b.String()
}

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
