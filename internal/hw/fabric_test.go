package hw

import (
	"fmt"

	"viator/internal/vm"
)

// Outputs returns the exported signal list.
func (f *Fabric) Outputs() []int { return append([]int(nil), f.outputs...) }

// Eval computes the fabric outputs for the given input pin values. One
// feed-forward pass suffices because of the configuration constraint.
func (f *Fabric) Eval(inputs []bool) ([]bool, error) {
	if len(inputs) != f.numIn {
		return nil, fmt.Errorf("%w: got %d inputs, fabric has %d", ErrConfig, len(inputs), f.numIn)
	}
	signals := make([]bool, f.numIn+len(f.cells))
	copy(signals, inputs)
	for i, c := range f.cells {
		idx := 0
		for b := 0; b < LUTInputs; b++ {
			if signals[c.In[b]] {
				idx |= 1 << b
			}
		}
		signals[f.numIn+i] = c.Truth&(1<<idx) != 0
	}
	out := make([]bool, len(f.outputs))
	for i, s := range f.outputs {
		out[i] = signals[s]
	}
	return out, nil
}

// Region copies cells [lo,hi) — the unit of partial reconfiguration.
func (f *Fabric) Region(lo, hi int) ([]Cell, error) {
	if lo < 0 || hi > len(f.cells) || lo > hi {
		return nil, fmt.Errorf("%w: region [%d,%d)", ErrConfig, lo, hi)
	}
	return append([]Cell(nil), f.cells[lo:hi]...), nil
}

// Netbot is an autonomous mobile hardware component: a bitstream plus the
// WanderScript "driver" routine it delivers at docking time, exactly as
// the paper describes ("netbots take care for delivering their own driver
// routines at docking time on the ship").
type Netbot struct {
	Name      string
	Bitstream *Bitstream
	Driver    vm.Program
}

// Dock installs the netbot's bitstream into the fabric at cell offset and
// returns the simulated reconfiguration latency. The driver program is the
// caller's to register with its NodeOS.
func (n *Netbot) Dock(f *Fabric, offset int) (float64, error) {
	if err := n.Bitstream.ApplyAt(f, offset); err != nil {
		return 0, err
	}
	return ReconfigTime(len(n.Bitstream.Cells)), nil
}
