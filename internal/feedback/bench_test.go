package feedback

import (
	"fmt"
	"testing"
)

// BenchmarkFeedbackPublishKey measures the pre-resolved routing handle
// path: one route-slice walk per signal. The bus carries 64 keyed
// subscribers plus a handful of wildcards — the scale of an S2 control
// plane with per-node loops. 0 allocs/op.
func BenchmarkFeedbackPublishKey(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	bus := newRouter()
	for i := 0; i < 64; i++ {
		bus.Subscribe(PerNode, fmt.Sprintf("node-%d", i), func(s Signal) { sink += s.Value })
	}
	for i := 0; i < 4; i++ {
		bus.Subscribe(PerNode, "", func(s Signal) { sink += s.Value })
	}
	k := bus.Key(PerNode, "node-7")
	bus.PublishKey(PerNode, k, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.PublishKey(PerNode, k, 1, float64(i))
	}
}
