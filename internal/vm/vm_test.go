package vm

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func run(t *testing.T, src string, gas int64) (int64, error) {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return NewMachine(p, gas).Run()
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"PUSH 2\nPUSH 3\nADD\nHALT", 5},
		{"PUSH 10\nPUSH 3\nSUB\nHALT", 7},
		{"PUSH 6\nPUSH 7\nMUL\nHALT", 42},
		{"PUSH 17\nPUSH 5\nDIV\nHALT", 3},
		{"PUSH 17\nPUSH 5\nMOD\nHALT", 2},
		{"PUSH 9\nNEG\nHALT", -9},
		{"PUSH 0\nNOT\nHALT", 1},
		{"PUSH 5\nNOT\nHALT", 0},
		{"PUSH 1\nPUSH 1\nEQ\nHALT", 1},
		{"PUSH 1\nPUSH 2\nLT\nHALT", 1},
		{"PUSH 1\nPUSH 2\nGT\nHALT", 0},
		{"PUSH 1\nPUSH 0\nAND\nHALT", 0},
		{"PUSH 1\nPUSH 0\nOR\nHALT", 1},
		{"HALT", 0},
	}
	for _, c := range cases {
		got, err := run(t, c.src, 1000)
		if err != nil || got != c.want {
			t.Fatalf("%q = %d, %v; want %d", c.src, got, err, c.want)
		}
	}
}

func TestStackOps(t *testing.T) {
	got, err := run(t, "PUSH 1\nPUSH 2\nSWAP\nPOP\nHALT", 100)
	if err != nil || got != 2 {
		t.Fatalf("swap/pop = %d, %v", got, err)
	}
	got, err = run(t, "PUSH 7\nDUP\nADD\nHALT", 100)
	if err != nil || got != 14 {
		t.Fatalf("dup = %d, %v", got, err)
	}
}

func TestLoopWithLabels(t *testing.T) {
	src := `
		PUSH 10
		STORE 0
		PUSH 0
		STORE 1       ; acc
	loop:
		LOAD 0
		JZ done
		LOAD 1
		LOAD 0
		ADD
		STORE 1
		LOAD 0
		PUSH 1
		SUB
		STORE 0
		JMP loop
	done:
		LOAD 1
		HALT`
	got, err := run(t, src, 10000)
	if err != nil || got != 55 {
		t.Fatalf("sum 1..10 = %d, %v", got, err)
	}
}

func TestGasExhaustion(t *testing.T) {
	_, err := run(t, "loop: JMP loop", 100)
	if !errors.Is(err, ErrGas) {
		t.Fatalf("err = %v, want ErrGas", err)
	}
}

func TestDivZero(t *testing.T) {
	_, err := run(t, "PUSH 1\nPUSH 0\nDIV\nHALT", 100)
	if !errors.Is(err, ErrDivZero) {
		t.Fatalf("err = %v", err)
	}
	_, err = run(t, "PUSH 1\nPUSH 0\nMOD\nHALT", 100)
	if !errors.Is(err, ErrDivZero) {
		t.Fatalf("err = %v", err)
	}
}

func TestStackUnderflow(t *testing.T) {
	for _, src := range []string{"ADD\nHALT", "POP\nHALT", "DUP\nHALT", "SWAP\nHALT", "NEG\nHALT", "JZ 0\nHALT"} {
		if _, err := run(t, src, 100); !errors.Is(err, ErrStack) {
			t.Fatalf("%q err = %v, want ErrStack", src, err)
		}
	}
}

func TestStackOverflow(t *testing.T) {
	src := "loop: PUSH 1\nJMP loop"
	_, err := run(t, src, 10000)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v", err)
	}
}

func TestFallOffEnd(t *testing.T) {
	_, err := run(t, "PUSH 1", 100)
	if !errors.Is(err, ErrNoHalt) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisters(t *testing.T) {
	p := MustAssemble("LOAD 3\nPUSH 2\nMUL\nSTORE 4\nHALT")
	m := NewMachine(p, 100)
	m.SetReg(3, 21)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.regs[4] != 42 {
		t.Fatalf("reg4 = %d", m.regs[4])
	}
}

func TestRegisterRange(t *testing.T) {
	if _, err := run(t, "LOAD 99\nHALT", 100); !errors.Is(err, ErrRegister) {
		t.Fatalf("err = %v", err)
	}
}

func TestHostCalls(t *testing.T) {
	p := MustAssemble("PUSH 5\nHOST 1\nHALT")
	m := NewMachine(p, 1000)
	m.Bind(1, func(m *Machine) error {
		v, err := m.PopArg()
		if err != nil {
			return err
		}
		return m.PushResult(v * 100)
	})
	got, err := m.Run()
	if err != nil || got != 500 {
		t.Fatalf("host result = %d, %v", got, err)
	}
}

func TestUnknownHost(t *testing.T) {
	m := NewMachine(MustAssemble("HOST 42\nHALT"), 100)
	if _, err := m.Run(); !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestHostGasSurcharge(t *testing.T) {
	m := NewMachine(MustAssemble("HOST 1\nHALT"), 5)
	m.Bind(1, func(m *Machine) error { return nil })
	if _, err := m.Run(); !errors.Is(err, ErrGas) {
		t.Fatalf("host call should exceed tiny budget: %v", err)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"BOGUS",
		"PUSH",           // missing operand
		"PUSH 1 2",       // too many operands
		"HALT 3",         // operand on nullary
		"JMP nowhere",    // undefined label
		"x: NOP\nx: NOP", // duplicate label
		"bad label: NOP", // label with space
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Fatalf("Assemble(%q) succeeded", src)
		}
	}
}

func TestAssembleCommentsAndCase(t *testing.T) {
	p, err := Assemble("  push 3 ; comment\n; full line comment\n\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 || p[0].Op != PUSH || p[1].Op != HALT {
		t.Fatalf("program = %v", p)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	src := `
		PUSH -1000000
		STORE 7
	l:	LOAD 7
		JNZ l
		HOST 3
		HALT`
	p := MustAssemble(src)
	b := Encode(p)
	q, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != len(p) {
		t.Fatalf("len %d != %d", len(q), len(p))
	}
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("instr %d: %v != %v", i, p[i], q[i])
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		{magicByte},                // missing count
		{magicByte, 2, byte(PUSH)}, // truncated operand
		{magicByte, 1, 200},        // bad opcode
		append(Encode(Program{{Op: HALT}}), 0xFF), // trailing bytes
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Fatalf("case %d decoded", i)
		}
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(ops []uint8, args []int64) bool {
		var p Program
		for i, o := range ops {
			op := Op(o % uint8(numOps))
			in := Instr{Op: op}
			if op.hasOperand() && i < len(args) {
				in.Arg = args[i]
			}
			p = append(p, in)
		}
		q, err := Decode(Encode(p))
		if err != nil || len(q) != len(p) {
			return false
		}
		for i := range p {
			if p[i] != q[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicExecution(t *testing.T) {
	// Same program, same inputs → same result and gas. The WLI model
	// depends on replayable mobile code.
	src := "LOAD 0\nPUSH 3\nMUL\nPUSH 7\nADD\nSTORE 1\nLOAD 1\nHALT"
	p := MustAssemble(src)
	if err := quick.Check(func(x int64) bool {
		m1 := NewMachine(p, 100)
		m1.SetReg(0, x)
		r1, e1 := m1.Run()
		m2 := NewMachine(p, 100)
		m2.SetReg(0, x)
		r2, e2 := m2.Run()
		return r1 == r2 && (e1 == nil) == (e2 == nil) && m1.GasUsed() == m2.GasUsed()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDisassembly(t *testing.T) {
	p := MustAssemble("PUSH 5\nHALT")
	s := p.String()
	if !strings.Contains(s, "PUSH 5") || !strings.Contains(s, "HALT") {
		t.Fatalf("disasm: %s", s)
	}
}

func TestJumpOutOfRange(t *testing.T) {
	p := Program{{Op: JMP, Arg: -5}}
	if _, err := NewMachine(p, 100).Run(); !errors.Is(err, ErrJump) {
		t.Fatalf("err = %v", err)
	}
	p = Program{{Op: PUSH, Arg: 1}, {Op: JNZ, Arg: 99}}
	if _, err := NewMachine(p, 100).Run(); !errors.Is(err, ErrJump) {
		t.Fatalf("err = %v", err)
	}
}
