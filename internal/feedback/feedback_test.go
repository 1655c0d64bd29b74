package feedback

import (
	"testing"
	"testing/quick"
)

func TestDimensionNames(t *testing.T) {
	seen := map[string]bool{}
	for d := Dimension(0); d < NumDimensions; d++ {
		name := d.String()
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate name %q", name)
		}
		seen[name] = true
	}
	if int(NumDimensions) != 10 {
		t.Fatalf("paper names 10 dimensions, have %d", NumDimensions)
	}
}

func TestBusAblation(t *testing.T) {
	b := NewBus()
	if !b.Enabled(PerPacket) {
		t.Fatal("new bus starts with a dimension disabled")
	}
	b.Enable(PerPacket, false)
	if b.Enabled(PerPacket) || !b.Enabled(PerNode) {
		t.Fatal("disabling one dimension did not switch exactly that one off")
	}
	b.Enable(PerPacket, true)
	if !b.Enabled(PerPacket) {
		t.Fatal("re-enabled dimension dead")
	}
}

func TestEnableOnly(t *testing.T) {
	b := NewBus()
	b.EnableOnly(PerNode, PerSession)
	for d := Dimension(0); d < NumDimensions; d++ {
		want := d == PerNode || d == PerSession
		if b.Enabled(d) != want {
			t.Fatalf("dimension %v enabled=%v", d, b.Enabled(d))
		}
	}
}

func TestAIMDBehaviour(t *testing.T) {
	a := NewAIMD(10, 1, 100, 2, 0.5)
	if r := a.OnGood(); r != 12 {
		t.Fatalf("good -> %v", r)
	}
	if r := a.OnBad(); r != 6 {
		t.Fatalf("bad -> %v", r)
	}
	// Clamps.
	for i := 0; i < 100; i++ {
		a.OnGood()
	}
	if a.Rate != 100 {
		t.Fatalf("max clamp: %v", a.Rate)
	}
	for i := 0; i < 100; i++ {
		a.OnBad()
	}
	if a.Rate != 1 {
		t.Fatalf("min clamp: %v", a.Rate)
	}
}

func TestAIMDInvariants(t *testing.T) {
	if err := quick.Check(func(ops []bool) bool {
		a := NewAIMD(50, 1, 100, 3, 0.7)
		for _, good := range ops {
			if good {
				a.OnGood()
			} else {
				a.OnBad()
			}
			if a.Rate < a.Min || a.Rate > a.Max {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAIMDBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAIMD(1, 0, 10, 1, 1.5) // decr >= 1
}

func TestThresholdHysteresis(t *testing.T) {
	th := NewThreshold(10, 5, 1) // alpha 1: no smoothing
	if th.Update(8) {
		t.Fatal("tripped below high")
	}
	if !th.Update(11) {
		t.Fatal("not tripped above high")
	}
	if !th.Update(7) {
		t.Fatal("reset inside hysteresis band")
	}
	if th.Update(4) {
		t.Fatal("not reset below low")
	}
	if th.tripped {
		t.Fatal("state query wrong")
	}
}

func TestThresholdSmoothing(t *testing.T) {
	th := NewThreshold(10, 5, 0.1)
	// One spike through a slow EWMA must not trip.
	th.Update(0)
	if th.Update(100) {
		t.Fatal("single spike tripped slow detector")
	}
	// Sustained load does.
	tripped := false
	for i := 0; i < 50; i++ {
		tripped = th.Update(100)
	}
	if !tripped {
		t.Fatal("sustained load did not trip")
	}
}
