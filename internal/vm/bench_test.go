package vm

import "testing"

// BenchmarkVMExecution measures assembling a fresh machine and running
// a 100-iteration countdown loop to HALT.
func BenchmarkVMExecution(b *testing.B) {
	p := MustAssemble(`
		PUSH 100
		STORE 0
	loop:
		LOAD 0
		JZ done
		LOAD 0
		PUSH 1
		SUB
		STORE 0
		JMP loop
	done:
		HALT`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewMachine(p, 10000).Run(); err != nil {
			b.Fatal(err)
		}
	}
}
