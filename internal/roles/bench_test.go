package roles

import "testing"

// BenchmarkRoleFusionPipeline measures one chunk through a fusion
// server (window 4, keep ratio 0.25).
func BenchmarkRoleFusionPipeline(b *testing.B) {
	f := NewFuser(4, 0.25)
	c := Chunk{Stream: "s", Bytes: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Seq = i
		f.Process(c)
	}
}
