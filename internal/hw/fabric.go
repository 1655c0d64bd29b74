// Package hw models the gate-level reconfigurable hardware of a 3G/4G
// Wandering Network ship: a feed-forward fabric of 4-input lookup-table
// cells (the FPGA abstraction) that can be partially reconfigured at
// runtime from a bitstream.
//
// The paper's 3G WN is "programmability at the hardware and switching
// circuitry layer ... runtime exchange of switching circuitry (plug-and-
// play modules) synchronized by driver updates in the node operating
// system"; this package is that substrate, simulated.
package hw

import (
	"errors"
	"fmt"
	"math"
)

// LUTInputs is the fan-in of one logic cell.
const LUTInputs = 4

// Cell is one configurable logic block: a 4-input LUT. In[] holds signal
// indexes; signal s < fabric.NumInputs() is a fabric input, otherwise it is
// the output of cell s-NumInputs. Feed-forward: a cell may only read
// signals with an index strictly below its own output signal.
//
// The indexes are int32, so a cell takes 20 B: four 4-byte inputs, the
// 2-byte truth table and 2 B of padding. Every ship of generation 3 or
// more holds a fabric of them. NewFabric keeps a fabric's signal count
// within int32, and DecodeBitstream rejects an input beyond it.
type Cell struct {
	In    [LUTInputs]int32
	Truth uint16 // truth table: bit (i3<<3|i2<<2|i1<<1|i0) gives the output
}

// Fabric is a reconfigurable logic array with named inputs and outputs.
type Fabric struct {
	numIn   int
	cells   []Cell
	outputs []int // signal indexes exported as fabric outputs

	reconfigured int // cumulative cells rewritten, drives latency modelling
}

// ErrConfig reports an invalid fabric configuration.
var ErrConfig = errors.New("hw: invalid configuration")

// NewFabric creates a fabric with numIn input pins and capacity cells, all
// initialized to constant-zero LUTs reading input 0. Its numIn+capacity
// signals must be indexable by a cell's int32 inputs.
func NewFabric(numIn, capacity int) *Fabric {
	if numIn <= 0 || capacity <= 0 {
		panic("hw: fabric needs inputs and cells")
	}
	if capacity > math.MaxInt32-numIn {
		panic("hw: fabric has more signals than an int32 cell input can index")
	}
	return &Fabric{numIn: numIn, cells: make([]Cell, capacity)}
}

// NumInputs returns the number of input pins.
func (f *Fabric) NumInputs() int { return f.numIn }

// NumCells returns the cell capacity.
func (f *Fabric) NumCells() int { return len(f.cells) }

// PerCellReconfigSeconds is the simulated time to rewrite one cell. A 2002
// partial-reconfiguration port writes on the order of 10⁴ cells/s.
const PerCellReconfigSeconds = 1e-4

// ReconfigTime returns the simulated latency of rewriting n cells.
func ReconfigTime(n int) float64 { return float64(n) * PerCellReconfigSeconds }

// SetCell configures cell i, enforcing the feed-forward constraint.
func (f *Fabric) SetCell(i int, c Cell) error {
	if i < 0 || i >= len(f.cells) {
		return fmt.Errorf("%w: cell %d of %d", ErrConfig, i, len(f.cells))
	}
	for _, s := range c.In {
		if s < 0 || int(s) >= f.numIn+i {
			return fmt.Errorf("%w: cell %d reads signal %d (must be < %d)", ErrConfig, i, s, f.numIn+i)
		}
	}
	f.cells[i] = c
	f.reconfigured++
	return nil
}

// SetOutputs declares which signals the fabric exports.
func (f *Fabric) SetOutputs(signals []int) error {
	for _, s := range signals {
		if s < 0 || s >= f.numIn+len(f.cells) {
			return fmt.Errorf("%w: output signal %d", ErrConfig, s)
		}
	}
	f.outputs = append(f.outputs[:0], signals...)
	return nil
}
