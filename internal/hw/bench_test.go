package hw

import "testing"

// BenchmarkFabricReconfigure measures applying an 8-input parity
// bitstream at a rotating offset of an 8×64 fabric.
func BenchmarkFabricReconfigure(b *testing.B) {
	f := NewFabric(8, 64)
	bs := Parity(8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bs.ApplyAt(f, i%32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricEval measures one evaluation of the configured parity
// circuit.
func BenchmarkFabricEval(b *testing.B) {
	f := NewFabric(8, 64)
	if err := Parity(8, 8).ApplyAt(f, 0); err != nil {
		b.Fatal(err)
	}
	in := make([]bool, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in[0] = i&1 != 0
		if _, err := f.Eval(in); err != nil {
			b.Fatal(err)
		}
	}
}
