package hw

import (
	"encoding/binary"
	"fmt"
)

// Encode serializes the bitstream for transport inside shuttle payloads.
func (b *Bitstream) Encode() []byte {
	out := []byte{bsMagic}
	out = binary.AppendUvarint(out, uint64(b.NumIn))
	out = binary.AppendUvarint(out, uint64(len(b.Cells)))
	for _, c := range b.Cells {
		for _, in := range c.In {
			out = binary.AppendUvarint(out, uint64(in))
		}
		out = binary.AppendUvarint(out, uint64(c.Truth))
	}
	out = binary.AppendUvarint(out, uint64(len(b.Outputs)))
	for _, s := range b.Outputs {
		out = binary.AppendUvarint(out, uint64(s))
	}
	return out
}

// Snapshot extracts the current configuration of cells [lo,hi) from f as a
// relocatable bitstream — the hardware half of genetic transcoding (a ship
// encoding its own structure for transport).
func Snapshot(f *Fabric, lo, hi int) (*Bitstream, error) {
	cells, err := f.Region(lo, hi)
	if err != nil {
		return nil, err
	}
	numIn := f.NumInputs()
	b := &Bitstream{NumIn: numIn}
	for _, c := range cells {
		rel := c
		for j, s := range c.In {
			if int(s) >= numIn {
				cellIdx := int(s) - numIn
				if cellIdx < lo || cellIdx >= hi {
					// References to cells outside the region cannot relocate.
					return nil, fmt.Errorf("%w: region [%d,%d) reads cell %d outside region", ErrConfig, lo, hi, cellIdx)
				}
				rel.In[j] = int32(numIn + cellIdx - lo)
			}
		}
		b.Cells = append(b.Cells, rel)
	}
	for _, s := range f.Outputs() {
		if s >= numIn {
			cellIdx := s - numIn
			if cellIdx < lo || cellIdx >= hi {
				continue // output owned by another region
			}
			b.Outputs = append(b.Outputs, numIn+(cellIdx-lo))
		} else {
			b.Outputs = append(b.Outputs, s)
		}
	}
	return b, nil
}

// Majority3 returns a 2-of-3 majority voter over inputs 0..2 — the
// fault-tolerance primitive (FTPDS context) for triplicated net functions.
func Majority3(numIn int) *Bitstream {
	if numIn < 3 {
		panic("hw: majority needs 3 inputs")
	}
	var t uint16
	for idx := 0; idx < 16; idx++ {
		n := idx&1 + idx>>1&1 + idx>>2&1
		if n >= 2 {
			t |= 1 << idx
		}
	}
	return &Bitstream{
		NumIn:   numIn,
		Cells:   []Cell{{In: [LUTInputs]int32{0, 1, 2, 0}, Truth: t}},
		Outputs: []int{numIn},
	}
}
