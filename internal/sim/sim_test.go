package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiverge(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("exp mean = %v, want ~2.5", mean)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		p := NewRNG(seed).Perm(20)
		sort.Ints(p)
		for i, v := range p {
			if v != i {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(11)
	child := parent.Split()
	// Child stream must not equal a shifted parent stream.
	a := make([]uint64, 50)
	for i := range a {
		a[i] = child.Uint64()
	}
	b := make([]uint64, 50)
	p2 := NewRNG(11)
	p2.Uint64() // consume the split draw
	for i := range b {
		b[i] = p2.Uint64()
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream overlaps parent: %d matches", same)
	}
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(3, func() { got = append(got, 3) })
	k.At(1, func() { got = append(got, 1) })
	k.At(2, func() { got = append(got, 2) })
	k.Run(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order = %v", got)
	}
}

func TestKernelFIFOTies(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestKernelHorizon(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(100, func() { fired = true })
	k.Run(50)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if k.Now() != 50 {
		t.Fatalf("now = %v, want horizon 50", k.Now())
	}
	k.Run(200)
	if !fired {
		t.Fatal("event not fired after horizon extended")
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(1, func() { fired = true })
	e.Cancel()
	k.Run(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(1, func() {})
	})
	k.Run(10)
}

func TestKernelStop(t *testing.T) {
	k := NewKernel(1)
	n := 0
	for i := 1; i <= 10; i++ {
		k.At(Time(i), func() {
			n++
			if n == 3 {
				k.Stop()
			}
		})
	}
	k.Run(100)
	if n != 3 {
		t.Fatalf("fired %d events after Stop, want 3", n)
	}
}

func TestKernelCascade(t *testing.T) {
	k := NewKernel(1)
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 100 {
			k.After(1, step)
		}
	}
	k.After(1, step)
	k.Run(1000)
	if depth != 100 {
		t.Fatalf("cascade depth = %d", depth)
	}
	if k.Now() != 1000 {
		t.Fatalf("now = %v", k.Now())
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	n := 0
	tk := k.Every(2, func() { n++ })
	k.Run(11)
	if n != 5 {
		t.Fatalf("ticker fired %d times in 11s at period 2, want 5", n)
	}
	tk.Stop()
	k.Run(100)
	if n != 5 {
		t.Fatalf("ticker fired after Stop: %d", n)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var tk *Ticker
	tk = k.Every(1, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	k.Run(100)
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

func TestDrain(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.At(1, func() { n++; k.After(1, func() { n++ }) })
	fired := k.Run(math.Inf(1))
	if fired != 2 || n != 2 {
		t.Fatalf("drain fired %d, n=%d", fired, n)
	}
}

func TestRunParallelDeterminismAndOrder(t *testing.T) {
	f := func() []uint64 {
		return RunParallel(32, 99, 4, func(i int, seed uint64) uint64 {
			r := NewRNG(seed)
			var acc uint64
			for j := 0; j < 100; j++ {
				acc ^= r.Uint64()
			}
			return acc + uint64(i)
		})
	}
	a, b := f(), f()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d nondeterministic", i)
		}
	}
}

func TestRunParallelWorkerClamping(t *testing.T) {
	got := RunParallel(3, 1, 100, func(i int, seed uint64) int { return i * i })
	want := []int{0, 1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestEventHeapLargeLoad(t *testing.T) {
	k := NewKernel(2)
	r := NewRNG(3)
	const n = 20000
	last := Time(-1)
	count := 0
	for i := 0; i < n; i++ {
		at := r.Float64() * 1000
		k.At(at, func() {
			if at < last {
				t.Errorf("out of order: %v after %v", at, last)
			}
			last = at
			count++
		})
	}
	k.Run(2000)
	if count != n {
		t.Fatalf("fired %d of %d", count, n)
	}
}
