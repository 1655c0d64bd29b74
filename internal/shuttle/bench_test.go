package shuttle

import "testing"

// BenchmarkShuttleCodec measures one encode/decode round trip of a gene
// shuttle carrying 256 bytes of code and 512 bytes of data.
func BenchmarkShuttleCodec(b *testing.B) {
	sh := New(1, Gene, 0, 1, 2)
	sh.CodeID = "svc"
	sh.Code = make([]byte, 256)
	sh.Data = make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(sh.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}
