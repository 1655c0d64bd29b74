package hw

// Standard circuit library: relocatable bitstreams for the hardware-level
// net functions the experiments swap in and out of ship fabrics. All
// builders produce feed-forward configurations in bitstream frame
// coordinates (signal numIn+k = bitstream cell k).

// lut2 builds a truth table for a 2-input function placed on LUT inputs
// 0 and 1 (inputs 2 and 3 ignored).
func lut2(fn func(a, b bool) bool) uint16 {
	var t uint16
	for idx := 0; idx < 16; idx++ {
		a := idx&1 != 0
		b := idx&2 != 0
		if fn(a, b) {
			t |= 1 << idx
		}
	}
	return t
}

// lut1 builds a truth table for a 1-input function on LUT input 0.
func lut1(fn func(a bool) bool) uint16 {
	var t uint16
	for idx := 0; idx < 16; idx++ {
		if fn(idx&1 != 0) {
			t |= 1 << idx
		}
	}
	return t
}

// Truth tables for the common gates.
var (
	TruthAND = lut2(func(a, b bool) bool { return a && b })
	TruthOR  = lut2(func(a, b bool) bool { return a || b })
	TruthXOR = lut2(func(a, b bool) bool { return a != b })
	TruthNOT = lut1(func(a bool) bool { return !a })
	TruthBUF = lut1(func(a bool) bool { return a })
)

// reduce builds a balanced binary reduction over the first n fabric inputs
// with the given 2-input gate, returning the bitstream.
func reduce(numIn, n int, truth uint16) *Bitstream {
	if n < 1 || n > numIn {
		panic("hw: reduce width out of range")
	}
	b := &Bitstream{NumIn: numIn}
	if n == 1 {
		b.Cells = append(b.Cells, Cell{In: [LUTInputs]int32{0, 0, 0, 0}, Truth: TruthBUF})
		b.Outputs = []int{numIn}
		return b
	}
	// level holds the signal indexes still to be combined.
	level := make([]int, n)
	for i := range level {
		level[i] = i
	}
	for len(level) > 1 {
		var next []int
		for i := 0; i+1 < len(level); i += 2 {
			cellIdx := len(b.Cells)
			b.Cells = append(b.Cells, Cell{In: [LUTInputs]int32{int32(level[i]), int32(level[i+1]), 0, 0}, Truth: truth})
			next = append(next, numIn+cellIdx)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	b.Outputs = []int{level[0]}
	return b
}

// ANDTree returns a circuit computing the conjunction of the first n
// inputs — a hardware packet-header match filter.
func ANDTree(numIn, n int) *Bitstream { return reduce(numIn, n, TruthAND) }

// ORTree returns a circuit computing the disjunction of the first n inputs.
func ORTree(numIn, n int) *Bitstream { return reduce(numIn, n, TruthOR) }

// Parity returns a circuit computing XOR over the first n inputs — the
// hardware checksum/ECC element used by the booster role.
func Parity(numIn, n int) *Bitstream { return reduce(numIn, n, TruthXOR) }

// Comparator returns a circuit that tests whether the first n inputs equal
// the given constant pattern — the hardware classifier for ship classes
// embedded in shuttle destination addresses (DCP morphing support).
func Comparator(numIn int, pattern []bool) *Bitstream {
	n := len(pattern)
	if n < 1 || n > numIn {
		panic("hw: comparator width out of range")
	}
	b := &Bitstream{NumIn: numIn}
	// Per-bit match cells: XNOR against the constant.
	matches := make([]int, n)
	for i, want := range pattern {
		var t uint16
		if want {
			t = TruthBUF
		} else {
			t = TruthNOT
		}
		b.Cells = append(b.Cells, Cell{In: [LUTInputs]int32{int32(i), 0, 0, 0}, Truth: t})
		matches[i] = numIn + len(b.Cells) - 1
	}
	// AND-reduce the match bits.
	level := matches
	for len(level) > 1 {
		var next []int
		for i := 0; i+1 < len(level); i += 2 {
			b.Cells = append(b.Cells, Cell{In: [LUTInputs]int32{int32(level[i]), int32(level[i+1]), 0, 0}, Truth: TruthAND})
			next = append(next, numIn+len(b.Cells)-1)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	b.Outputs = []int{level[0]}
	return b
}
