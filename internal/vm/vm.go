// Package vm implements WanderScript, the mobile-code substrate of the
// Wandering Network: a small stack-machine bytecode with an assembler, a
// compact binary codec (shuttles carry programs on the wire) and a
// gas-metered interpreter with a host-call interface.
//
// The paper requires active packets that "carry program code" executable
// at ships under safety constraints; gas metering and stack bounds give
// the safety, the codec gives the mobility, and host calls give programs
// access to the ship's primitives (roles, facts, reconfiguration).
package vm

import (
	"errors"
	"fmt"
)

// Op is a WanderScript opcode.
type Op uint8

// The instruction set. Arithmetic works on a stack of int64 values.
const (
	NOP   Op = iota
	PUSH     // push immediate
	POP      // discard top
	DUP      // duplicate top
	SWAP     // swap top two
	ADD      // a b -- a+b
	SUB      // a b -- a-b
	MUL      // a b -- a*b
	DIV      // a b -- a/b (error on b==0)
	MOD      // a b -- a%b (error on b==0)
	NEG      // a -- -a
	NOT      // a -- (a==0 ? 1 : 0)
	AND      // a b -- (a!=0 && b!=0)
	OR       // a b -- (a!=0 || b!=0)
	EQ       // a b -- (a==b)
	LT       // a b -- (a<b)
	GT       // a b -- (a>b)
	JMP      // unconditional jump to operand
	JZ       // pop; jump if zero
	JNZ      // pop; jump if non-zero
	LOAD     // push register[operand]
	STORE    // pop into register[operand]
	HOST     // call host function #operand
	HALT     // stop successfully
	numOps
)

var opNames = [numOps]string{
	"NOP", "PUSH", "POP", "DUP", "SWAP", "ADD", "SUB", "MUL", "DIV", "MOD",
	"NEG", "NOT", "AND", "OR", "EQ", "LT", "GT", "JMP", "JZ", "JNZ",
	"LOAD", "STORE", "HOST", "HALT",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// hasOperand reports whether the opcode carries an immediate.
func (o Op) hasOperand() bool {
	switch o {
	case PUSH, JMP, JZ, JNZ, LOAD, STORE, HOST:
		return true
	}
	return false
}

// Instr is one decoded instruction.
type Instr struct {
	Op  Op
	Arg int64
}

// Program is an executable WanderScript sequence.
type Program []Instr

// String disassembles the program.
func (p Program) String() string {
	out := ""
	for i, in := range p {
		if in.Op.hasOperand() {
			out += fmt.Sprintf("%3d: %s %d\n", i, in.Op, in.Arg)
		} else {
			out += fmt.Sprintf("%3d: %s\n", i, in.Op)
		}
	}
	return out
}

// Execution errors.
var (
	ErrGas       = errors.New("vm: out of gas")
	ErrStack     = errors.New("vm: stack underflow")
	ErrOverflow  = errors.New("vm: stack overflow")
	ErrDivZero   = errors.New("vm: division by zero")
	ErrJump      = errors.New("vm: jump out of range")
	ErrRegister  = errors.New("vm: register out of range")
	ErrNoHost    = errors.New("vm: unknown host function")
	ErrBadOpcode = errors.New("vm: illegal opcode")
	ErrNoHalt    = errors.New("vm: fell off end of program")
)

// NumRegisters is the register file size available to programs.
const NumRegisters = 16

// MaxStack bounds the operand stack; exceeding it aborts the program.
const MaxStack = 256

// HostFunc implements one ship-side primitive callable from mobile code.
// It receives the VM (for stack access via PopArg/PushResult) and returns
// an error to abort execution.
type HostFunc func(m *Machine) error

// Machine executes one program against a host environment.
type Machine struct {
	prog  Program
	stack []int64
	regs  [NumRegisters]int64
	hosts map[int64]HostFunc
	gas   int64
	used  int64
	pc    int
}

// NewMachine prepares a machine with the given gas budget.
func NewMachine(p Program, gas int64) *Machine {
	return &Machine{prog: p, gas: gas, hosts: make(map[int64]HostFunc)}
}

// Bind registers host function id → fn.
func (m *Machine) Bind(id int64, fn HostFunc) { m.hosts[id] = fn }

// SetReg presets a register before execution (argument passing).
func (m *Machine) SetReg(i int, v int64) {
	if i < 0 || i >= NumRegisters {
		panic("vm: SetReg out of range")
	}
	m.regs[i] = v
}

// GasUsed returns the gas consumed so far.
func (m *Machine) GasUsed() int64 { return m.used }

// PopArg pops a value for a host function; it reports underflow.
func (m *Machine) PopArg() (int64, error) {
	if len(m.stack) == 0 {
		return 0, ErrStack
	}
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v, nil
}

// PushResult pushes a host function result.
func (m *Machine) PushResult(v int64) error {
	if len(m.stack) >= MaxStack {
		return ErrOverflow
	}
	m.stack = append(m.stack, v)
	return nil
}

func (m *Machine) pop2() (a, b int64, err error) {
	if len(m.stack) < 2 {
		return 0, 0, ErrStack
	}
	b = m.stack[len(m.stack)-1]
	a = m.stack[len(m.stack)-2]
	m.stack = m.stack[:len(m.stack)-2]
	return a, b, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Run executes the program to HALT or error. The top-of-stack at HALT (0
// when empty) is returned as the program result.
func (m *Machine) Run() (int64, error) {
	for {
		if m.pc < 0 || m.pc >= len(m.prog) {
			return 0, ErrNoHalt
		}
		if m.used++; m.used > m.gas {
			return 0, ErrGas
		}
		in := m.prog[m.pc]
		m.pc++
		switch in.Op {
		case NOP:
		case PUSH:
			if err := m.PushResult(in.Arg); err != nil {
				return 0, err
			}
		case POP:
			if _, err := m.PopArg(); err != nil {
				return 0, err
			}
		case DUP:
			if len(m.stack) == 0 {
				return 0, ErrStack
			}
			if err := m.PushResult(m.stack[len(m.stack)-1]); err != nil {
				return 0, err
			}
		case SWAP:
			if len(m.stack) < 2 {
				return 0, ErrStack
			}
			n := len(m.stack)
			m.stack[n-1], m.stack[n-2] = m.stack[n-2], m.stack[n-1]
		case ADD, SUB, MUL, DIV, MOD, AND, OR, EQ, LT, GT:
			a, b, err := m.pop2()
			if err != nil {
				return 0, err
			}
			var v int64
			switch in.Op {
			case ADD:
				v = a + b
			case SUB:
				v = a - b
			case MUL:
				v = a * b
			case DIV:
				if b == 0 {
					return 0, ErrDivZero
				}
				v = a / b
			case MOD:
				if b == 0 {
					return 0, ErrDivZero
				}
				v = a % b
			case AND:
				v = b2i(a != 0 && b != 0)
			case OR:
				v = b2i(a != 0 || b != 0)
			case EQ:
				v = b2i(a == b)
			case LT:
				v = b2i(a < b)
			case GT:
				v = b2i(a > b)
			}
			m.stack = append(m.stack, v)
		case NEG:
			if len(m.stack) == 0 {
				return 0, ErrStack
			}
			m.stack[len(m.stack)-1] = -m.stack[len(m.stack)-1]
		case NOT:
			if len(m.stack) == 0 {
				return 0, ErrStack
			}
			m.stack[len(m.stack)-1] = b2i(m.stack[len(m.stack)-1] == 0)
		case JMP:
			if in.Arg < 0 || in.Arg > int64(len(m.prog)) {
				return 0, ErrJump
			}
			m.pc = int(in.Arg)
		case JZ, JNZ:
			v, err := m.PopArg()
			if err != nil {
				return 0, err
			}
			taken := (in.Op == JZ && v == 0) || (in.Op == JNZ && v != 0)
			if taken {
				if in.Arg < 0 || in.Arg > int64(len(m.prog)) {
					return 0, ErrJump
				}
				m.pc = int(in.Arg)
			}
		case LOAD:
			if in.Arg < 0 || in.Arg >= NumRegisters {
				return 0, ErrRegister
			}
			if err := m.PushResult(m.regs[in.Arg]); err != nil {
				return 0, err
			}
		case STORE:
			if in.Arg < 0 || in.Arg >= NumRegisters {
				return 0, ErrRegister
			}
			v, err := m.PopArg()
			if err != nil {
				return 0, err
			}
			m.regs[in.Arg] = v
		case HOST:
			fn, ok := m.hosts[in.Arg]
			if !ok {
				return 0, fmt.Errorf("%w: %d", ErrNoHost, in.Arg)
			}
			// Host work costs extra gas to keep heavyweight primitives
			// from being free relative to arithmetic.
			m.used += 9
			if m.used > m.gas {
				return 0, ErrGas
			}
			if err := fn(m); err != nil {
				return 0, err
			}
		case HALT:
			if len(m.stack) == 0 {
				return 0, nil
			}
			return m.stack[len(m.stack)-1], nil
		default:
			return 0, fmt.Errorf("%w: %d", ErrBadOpcode, in.Op)
		}
	}
}
