package hw

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"viator/internal/vm"
)

func bits(n, width int) []bool {
	out := make([]bool, width)
	for i := 0; i < width; i++ {
		out[i] = n&(1<<i) != 0
	}
	return out
}

func evalOne(t *testing.T, f *Fabric, in []bool) bool {
	t.Helper()
	out, err := f.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("want 1 output, got %d", len(out))
	}
	return out[0]
}

func TestFabricFeedForwardConstraint(t *testing.T) {
	f := NewFabric(2, 4)
	// Cell 0 may read inputs 0,1 only (signals < 2).
	if err := f.SetCell(0, Cell{In: [4]int32{0, 1, 0, 0}, Truth: TruthAND}); err != nil {
		t.Fatal(err)
	}
	// Cell 0 may not read its own output (signal 2).
	if err := f.SetCell(0, Cell{In: [4]int32{2, 0, 0, 0}}); err == nil {
		t.Fatal("self-reference accepted")
	}
	// Cell 1 may read cell 0's output.
	if err := f.SetCell(1, Cell{In: [4]int32{2, 0, 0, 0}, Truth: TruthNOT}); err != nil {
		t.Fatal(err)
	}
	// Cell index bounds.
	if err := f.SetCell(9, Cell{}); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
}

func TestANDTreeAllWidths(t *testing.T) {
	for n := 1; n <= 8; n++ {
		f := NewFabric(8, 16)
		bs := ANDTree(8, n)
		if err := bs.ApplyAt(f, 0); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for v := 0; v < 1<<n; v++ {
			in := bits(v, 8)
			want := v == (1<<n)-1
			if got := evalOne(t, f, in); got != want {
				t.Fatalf("AND%d(%08b) = %v, want %v", n, v, got, want)
			}
		}
	}
}

func TestParityExhaustive(t *testing.T) {
	f := NewFabric(6, 16)
	bs := Parity(6, 6)
	if err := bs.ApplyAt(f, 0); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 64; v++ {
		pop := 0
		for i := 0; i < 6; i++ {
			if v&(1<<i) != 0 {
				pop++
			}
		}
		if got := evalOne(t, f, bits(v, 6)); got != (pop%2 == 1) {
			t.Fatalf("parity(%06b) = %v", v, got)
		}
	}
}

func TestMajority3(t *testing.T) {
	f := NewFabric(3, 4)
	if err := Majority3(3).ApplyAt(f, 0); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		pop := v&1 + v>>1&1 + v>>2&1
		if got := evalOne(t, f, bits(v, 3)); got != (pop >= 2) {
			t.Fatalf("maj(%03b) = %v", v, got)
		}
	}
}

func TestComparator(t *testing.T) {
	pattern := []bool{true, false, true, true}
	f := NewFabric(4, 16)
	if err := Comparator(4, pattern).ApplyAt(f, 0); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 16; v++ {
		in := bits(v, 4)
		want := v == 0b1101
		if got := evalOne(t, f, in); got != want {
			t.Fatalf("cmp(%04b) = %v, want %v", v, got, want)
		}
	}
}

func TestPartialReconfigAtOffset(t *testing.T) {
	// Place a parity circuit at a non-zero offset; relocation must shift
	// inter-cell references correctly.
	f := NewFabric(4, 32)
	bs := Parity(4, 4)
	if err := bs.ApplyAt(f, 10); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 16; v++ {
		pop := 0
		for i := 0; i < 4; i++ {
			if v&(1<<i) != 0 {
				pop++
			}
		}
		if got := evalOne(t, f, bits(v, 4)); got != (pop%2 == 1) {
			t.Fatalf("offset parity(%04b) = %v", v, got)
		}
	}
}

func TestRuntimeExchange(t *testing.T) {
	// The 3G capability: swap the circuit at runtime and observe the new
	// function immediately.
	f := NewFabric(4, 16)
	if err := ANDTree(4, 2).ApplyAt(f, 0); err != nil {
		t.Fatal(err)
	}
	in := bits(0b01, 4)
	if evalOne(t, f, in) {
		t.Fatal("AND(0,1) = true")
	}
	if err := ORTree(4, 2).ApplyAt(f, 0); err != nil {
		t.Fatal(err)
	}
	if !evalOne(t, f, in) {
		t.Fatal("OR(0,1) = false after reconfiguration")
	}
}

func TestBitstreamRoundTrip(t *testing.T) {
	bs := Comparator(8, []bool{true, true, false, true, false})
	dec, err := DecodeBitstream(bs.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumIn != bs.NumIn || len(dec.Cells) != len(bs.Cells) || len(dec.Outputs) != len(bs.Outputs) {
		t.Fatalf("shape mismatch: %+v vs %+v", dec, bs)
	}
	for i := range bs.Cells {
		if dec.Cells[i] != bs.Cells[i] {
			t.Fatalf("cell %d: %+v != %+v", i, dec.Cells[i], bs.Cells[i])
		}
	}
}

func TestBitstreamRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, {0x00}, {bsMagic}, {bsMagic, 4}}
	for i, b := range cases {
		if _, err := DecodeBitstream(b); err == nil {
			t.Fatalf("case %d decoded", i)
		}
	}
	good := Parity(4, 4).Encode()
	if _, err := DecodeBitstream(append(good, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// oneCellBitstream encodes a bitstream over numIn pins of one buffer
// cell that reads signal in, which may lie beyond any int32 cell input,
// and exports nothing.
func oneCellBitstream(numIn int, in uint64) []byte {
	out := []byte{bsMagic}
	out = binary.AppendUvarint(out, uint64(numIn))
	out = binary.AppendUvarint(out, 1)
	out = binary.AppendUvarint(out, in)
	for j := 1; j < LUTInputs; j++ {
		out = binary.AppendUvarint(out, 0)
	}
	out = binary.AppendUvarint(out, uint64(TruthBUF))
	return binary.AppendUvarint(out, 0)
}

// TestDecodeBitstreamCellInputRange checks that a decoded cell input is
// kept exactly when it fits an int32 and rejected with ErrBitstream
// when it does not, rather than wrapped: 1<<32+3 would become signal 3.
// A kept input too large for the fabric it is placed in is a
// configuration error at ApplyAt, not a wrapped signal either.
func TestDecodeBitstreamCellInputRange(t *testing.T) {
	for _, c := range []struct {
		name string
		in   uint64
		ok   bool
	}{
		{"pin", 3, true},
		{"largest int32", math.MaxInt32, true},
		{"one past int32", math.MaxInt32 + 1, false},
		{"wraps to 3", 1<<32 + 3, false},
		{"largest uint64", math.MaxUint64, false},
	} {
		b, err := DecodeBitstream(oneCellBitstream(4, c.in))
		if !c.ok {
			if !errors.Is(err, ErrBitstream) {
				t.Errorf("%s: err = %v, want ErrBitstream", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := b.Cells[0].In[0]; int64(got) != int64(c.in) {
			t.Errorf("%s: decoded input %d, want %d", c.name, got, c.in)
		}
		if c.in >= 4 {
			if err := b.ApplyAt(NewFabric(4, 16), 1); !errors.Is(err, ErrConfig) {
				t.Errorf("%s: ApplyAt err = %v, want ErrConfig", c.name, err)
			}
		}
	}
}

// TestNewFabricSignalRange checks NewFabric's bounds: it needs inputs
// and cells, and its numIn+capacity signals must fit an int32 cell
// input. Every rejected size is refused before any cell is allocated.
func TestNewFabricSignalRange(t *testing.T) {
	for _, c := range []struct {
		name            string
		numIn, capacity int
		ok              bool
	}{
		{"ship default", 8, 64, true},
		{"signals fill int32", math.MaxInt32 - 1, 1, true},
		{"no inputs", 0, 4, false},
		{"no cells", 4, 0, false},
		{"signals one past int32", 1, math.MaxInt32, false},
		{"inputs alone past int32", math.MaxInt32, 1, false},
		{"capacity far past int32", 8, 1 << 40, false},
	} {
		func() {
			defer func() {
				if r := recover(); (r == nil) != c.ok {
					t.Errorf("NewFabric(%d, %d) %s: panic %v, want ok=%v", c.numIn, c.capacity, c.name, r, c.ok)
				}
			}()
			NewFabric(c.numIn, c.capacity)
		}()
	}
}

// sinkFabric keeps TestFabricBytesPerCell's fabrics on the heap.
var sinkFabric *Fabric

// TestFabricBytesPerCell pins a fabric's size: NewFabric(8, 4096)
// allocates its cells at 20 B each (four int32 inputs and the truth
// table), plus a small constant for the Fabric itself. With int inputs
// a cell would take 40 B.
func TestFabricBytesPerCell(t *testing.T) {
	const cells = 4096
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkFabric = NewFabric(8, cells)
		}
	})
	if got, limit := res.AllocedBytesPerOp(), int64(20*cells+1<<10); got > limit {
		t.Fatalf("NewFabric(8, %d) allocated %d B, want at most %d (20 B a cell + 1 KiB)", cells, got, limit)
	}
}

func TestBitstreamTooBigForFabric(t *testing.T) {
	f := NewFabric(8, 3)
	if err := Parity(8, 8).ApplyAt(f, 0); err == nil {
		t.Fatal("oversized bitstream accepted")
	}
	if err := ANDTree(8, 2).ApplyAt(f, 3); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
}

func TestBitstreamInputMismatch(t *testing.T) {
	f := NewFabric(4, 16)
	if err := Parity(8, 8).ApplyAt(f, 0); err == nil {
		t.Fatal("input-count mismatch accepted")
	}
}

func TestSnapshotGeneticTranscoding(t *testing.T) {
	// Encode a region of a live fabric, apply it to a fresh fabric at a
	// different offset, and verify identical behaviour: the hardware half
	// of the paper's genetic transcoding mechanism.
	src := NewFabric(5, 20)
	if err := Parity(5, 5).ApplyAt(src, 0); err != nil {
		t.Fatal(err)
	}
	nCells := len(Parity(5, 5).Cells)
	snap, err := Snapshot(src, 0, nCells)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewFabric(5, 20)
	if err := snap.ApplyAt(dst, 7); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 32; v++ {
		in := bits(v, 5)
		a, _ := src.Eval(in)
		b, _ := dst.Eval(in)
		if a[0] != b[0] {
			t.Fatalf("transcoded fabric differs at %05b", v)
		}
	}
}

func TestSnapshotRejectsDanglingRefs(t *testing.T) {
	f := NewFabric(2, 4)
	if err := f.SetCell(0, Cell{In: [4]int32{0, 1, 0, 0}, Truth: TruthAND}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetCell(1, Cell{In: [4]int32{2, 0, 0, 0}, Truth: TruthNOT}); err != nil {
		t.Fatal(err)
	}
	// Region [1,2) reads cell 0 which is outside: must refuse.
	if _, err := Snapshot(f, 1, 2); err == nil {
		t.Fatal("dangling reference snapshot accepted")
	}
}

func TestNetbotDocking(t *testing.T) {
	bot := &Netbot{
		Name:      "parity-bot",
		Bitstream: Parity(4, 4),
		Driver:    vm.MustAssemble("PUSH 1\nHALT"),
	}
	f := NewFabric(4, 16)
	latency, err := bot.Dock(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if latency != ReconfigTime(len(bot.Bitstream.Cells)) {
		t.Fatalf("latency = %v", latency)
	}
	if got := evalOne(t, f, bits(0b0111, 4)); !got {
		t.Fatal("docked circuit not functional")
	}
	if r, err := vm.NewMachine(bot.Driver, 100).Run(); err != nil || r != 1 {
		t.Fatalf("driver run: %d, %v", r, err)
	}
}

func TestReconfiguredAccounting(t *testing.T) {
	f := NewFabric(4, 16)
	before := f.reconfigured
	bs := Parity(4, 4)
	if err := bs.ApplyAt(f, 0); err != nil {
		t.Fatal(err)
	}
	if f.reconfigured-before != len(bs.Cells) {
		t.Fatalf("reconfigured = %d, want %d", f.reconfigured-before, len(bs.Cells))
	}
}

func TestEvalInputMismatch(t *testing.T) {
	f := NewFabric(4, 4)
	if _, err := f.Eval([]bool{true}); err == nil {
		t.Fatal("short input accepted")
	}
}

func TestEncodeDecodePropertyEquivalence(t *testing.T) {
	// Round-tripped circuits behave identically on all inputs.
	if err := quick.Check(func(pat []bool, v uint8) bool {
		if len(pat) == 0 || len(pat) > 6 {
			return true
		}
		bs := Comparator(6, pat)
		dec, err := DecodeBitstream(bs.Encode())
		if err != nil {
			return false
		}
		f1 := NewFabric(6, 32)
		f2 := NewFabric(6, 32)
		if bs.ApplyAt(f1, 0) != nil || dec.ApplyAt(f2, 0) != nil {
			return false
		}
		in := bits(int(v)&63, 6)
		a, _ := f1.Eval(in)
		b, _ := f2.Eval(in)
		return a[0] == b[0]
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
