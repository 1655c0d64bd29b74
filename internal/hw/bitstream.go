package hw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Bitstream is the transportable form of a fabric (sub)configuration: a
// run of cells plus the signal list they export. Shuttles and netbots move
// bitstreams between ships; ApplyAt performs partial reconfiguration.
type Bitstream struct {
	NumIn   int // input-pin count this configuration assumes
	Cells   []Cell
	Outputs []int
}

// ErrBitstream reports a malformed encoded bitstream.
var ErrBitstream = errors.New("hw: malformed bitstream")

const bsMagic = 0xB5

// DecodeBitstream parses an encoded bitstream.
func DecodeBitstream(data []byte) (*Bitstream, error) {
	if len(data) == 0 || data[0] != bsMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBitstream)
	}
	data = data[1:]
	next := func() (uint64, error) {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return 0, fmt.Errorf("%w: truncated", ErrBitstream)
		}
		data = data[k:]
		return v, nil
	}
	numIn, err := next()
	if err != nil {
		return nil, err
	}
	nCells, err := next()
	if err != nil {
		return nil, err
	}
	if nCells > 1<<16 {
		return nil, fmt.Errorf("%w: %d cells", ErrBitstream, nCells)
	}
	b := &Bitstream{NumIn: int(numIn)}
	for i := uint64(0); i < nCells; i++ {
		var c Cell
		for j := 0; j < LUTInputs; j++ {
			v, err := next()
			if err != nil {
				return nil, err
			}
			if v > math.MaxInt32 {
				return nil, fmt.Errorf("%w: cell %d input %d overflows int32", ErrBitstream, i, v)
			}
			c.In[j] = int32(v)
		}
		tr, err := next()
		if err != nil {
			return nil, err
		}
		if tr > 0xFFFF {
			return nil, fmt.Errorf("%w: truth table overflow", ErrBitstream)
		}
		c.Truth = uint16(tr)
		b.Cells = append(b.Cells, c)
	}
	nOut, err := next()
	if err != nil {
		return nil, err
	}
	if nOut > 1<<16 {
		return nil, fmt.Errorf("%w: %d outputs", ErrBitstream, nOut)
	}
	for i := uint64(0); i < nOut; i++ {
		v, err := next()
		if err != nil {
			return nil, err
		}
		b.Outputs = append(b.Outputs, int(v))
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBitstream)
	}
	return b, nil
}

// ApplyAt writes the bitstream's cells into f starting at cell offset and
// installs its output list (signals are relative to the bitstream's own
// frame and shifted by the placement offset). This is the simulator's
// partial-reconfiguration port.
func (b *Bitstream) ApplyAt(f *Fabric, offset int) error {
	if b.NumIn != f.NumInputs() {
		return fmt.Errorf("%w: bitstream wants %d input pins, fabric has %d", ErrConfig, b.NumIn, f.NumInputs())
	}
	if offset < 0 || offset+len(b.Cells) > f.NumCells() {
		return fmt.Errorf("%w: bitstream of %d cells at offset %d exceeds fabric %d",
			ErrConfig, len(b.Cells), offset, f.NumCells())
	}
	for i, c := range b.Cells {
		shifted := c
		for j, s := range c.In {
			if int(s) >= b.NumIn { // cell-output signal: shift by placement
				v := int(s) + offset
				if v > math.MaxInt32 {
					return fmt.Errorf("%w: bitstream cell %d reads signal %d beyond the fabric", ErrConfig, i, s)
				}
				shifted.In[j] = int32(v)
			}
		}
		if err := f.SetCell(offset+i, shifted); err != nil {
			return err
		}
	}
	outs := make([]int, len(b.Outputs))
	for i, s := range b.Outputs {
		if s >= b.NumIn {
			outs[i] = s + offset
		} else {
			outs[i] = s
		}
	}
	return f.SetOutputs(outs)
}
