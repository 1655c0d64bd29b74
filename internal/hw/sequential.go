package hw

import "fmt"

// Sequential logic: a clocked fabric wraps the combinational array with
// a register file whose outputs feed back as extra inputs on the next
// clock edge. This is what lets a ship's hardware hold protocol state —
// counters, sequence trackers, rate-limiter buckets — rather than being
// a pure function of the current packet.
//
// Signal layout of the inner fabric: pins [0, NumIn) are the external
// inputs, pins [NumIn, NumIn+Regs) are the current register values. The
// configuration designates, per register, which fabric signal is its
// next-state input (captured at Clock).

// Sequential is a clocked reconfigurable circuit.
type Sequential struct {
	fab   *Fabric
	numIn int
	regs  []bool
	next  []int // per register: signal index captured at the clock edge

	// Cycles counts clock edges since construction/reset.
	Cycles uint64
}

// NewSequential builds a clocked fabric with numIn external inputs,
// nRegs registers and the given combinational cell capacity.
func NewSequential(numIn, nRegs, capacity int) *Sequential {
	if nRegs < 1 {
		panic("hw: sequential needs registers")
	}
	return &Sequential{
		fab:   NewFabric(numIn+nRegs, capacity),
		numIn: numIn,
		regs:  make([]bool, nRegs),
		next:  make([]int, nRegs),
	}
}

// Fabric exposes the inner combinational array for configuration. Cell
// inputs may reference external pins [0,numIn) and register pins
// [numIn, numIn+nRegs).
func (s *Sequential) Fabric() *Fabric { return s.fab }

// NumRegisters returns the register count.
func (s *Sequential) NumRegisters() int { return len(s.regs) }

// SetNext wires register r's next-state input to the given inner-fabric
// signal (external pin, register pin, or cell output).
func (s *Sequential) SetNext(r, signal int) error {
	if r < 0 || r >= len(s.regs) {
		return fmt.Errorf("%w: register %d", ErrConfig, r)
	}
	if signal < 0 || signal >= s.fab.NumInputs()+s.fab.NumCells() {
		return fmt.Errorf("%w: next-state signal %d", ErrConfig, signal)
	}
	s.next[r] = signal
	return nil
}

// Reset clears all registers.
func (s *Sequential) Reset() {
	for i := range s.regs {
		s.regs[i] = false
	}
	s.Cycles = 0
}

// Reg reads register r's current value.
func (s *Sequential) Reg(r int) bool { return s.regs[r] }

// eval runs the combinational part against inputs + current registers
// and returns the full signal vector (inputs, registers, cell outputs).
func (s *Sequential) eval(inputs []bool) ([]bool, []bool, error) {
	if len(inputs) != s.numIn {
		return nil, nil, fmt.Errorf("%w: got %d inputs, want %d", ErrConfig, len(inputs), s.numIn)
	}
	full := make([]bool, s.numIn+len(s.regs))
	copy(full, inputs)
	copy(full[s.numIn:], s.regs)
	outs, err := s.fab.Eval(full)
	if err != nil {
		return nil, nil, err
	}
	// Rebuild the signal vector the way Fabric.Eval computes it, so
	// next-state taps can reference any signal.
	signals := make([]bool, s.fab.NumInputs()+s.fab.NumCells())
	copy(signals, full)
	// Recompute cell outputs (Eval already did; we need them exposed).
	for i := 0; i < s.fab.NumCells(); i++ {
		c := s.fab.cells[i]
		idx := 0
		for b := 0; b < LUTInputs; b++ {
			if signals[c.In[b]] {
				idx |= 1 << b
			}
		}
		signals[s.fab.NumInputs()+i] = c.Truth&(1<<idx) != 0
	}
	return outs, signals, nil
}

// Peek evaluates the combinational outputs without clocking.
func (s *Sequential) Peek(inputs []bool) ([]bool, error) {
	outs, _, err := s.eval(inputs)
	return outs, err
}

// Clock evaluates the circuit and latches every register's next-state
// signal — one synchronous cycle. It returns the (pre-edge) outputs.
func (s *Sequential) Clock(inputs []bool) ([]bool, error) {
	outs, signals, err := s.eval(inputs)
	if err != nil {
		return nil, err
	}
	for r := range s.regs {
		s.regs[r] = signals[s.next[r]]
	}
	s.Cycles++
	return outs, nil
}

// BuildCounter configures a Sequential as an n-bit binary counter with
// an enable input (pin 0): the canonical protocol-state circuit (packet
// counters, sequence numbers). Returns the configured machine; register
// r holds bit r, counting up each clock while enable is high.
func BuildCounter(bits int) (*Sequential, error) {
	// Inputs: pin 0 = enable. Registers: bits. Cells compute, per bit,
	// sum = reg XOR carry, with carry chained through AND cells.
	// Cell layout (numIn=1, so register pins start at 1):
	//   for bit 0: next = reg0 XOR enable
	//   carry0 = reg0 AND enable
	//   for bit k: next = regk XOR carry(k-1); carryk = regk AND carry(k-1)
	s := NewSequential(1, bits, 2*bits)
	f := s.Fabric()
	regPin := func(r int) int { return 1 + r }
	cellSig := func(c int) int { return f.NumInputs() + c }

	carry := 0 // signal index of the incoming carry; starts as enable pin
	cellIdx := 0
	for b := 0; b < bits; b++ {
		// XOR cell: regb ^ carry.
		if err := f.SetCell(cellIdx, Cell{In: [LUTInputs]int32{int32(regPin(b)), int32(carry), 0, 0}, Truth: TruthXOR}); err != nil {
			return nil, err
		}
		xorSig := cellSig(cellIdx)
		cellIdx++
		// AND cell: regb & carry → next carry.
		if err := f.SetCell(cellIdx, Cell{In: [LUTInputs]int32{int32(regPin(b)), int32(carry), 0, 0}, Truth: TruthAND}); err != nil {
			return nil, err
		}
		carry = cellSig(cellIdx)
		cellIdx++
		if err := s.SetNext(b, xorSig); err != nil {
			return nil, err
		}
	}
	// Outputs: the register values themselves.
	outs := make([]int, bits)
	for b := 0; b < bits; b++ {
		outs[b] = regPin(b)
	}
	if err := f.SetOutputs(outs); err != nil {
		return nil, err
	}
	return s, nil
}

// Value reads the counter's registers as an unsigned integer (register 0
// is the least significant bit).
func (s *Sequential) Value() uint64 {
	var v uint64
	for r := len(s.regs) - 1; r >= 0; r-- {
		v <<= 1
		if s.regs[r] {
			v |= 1
		}
	}
	return v
}
