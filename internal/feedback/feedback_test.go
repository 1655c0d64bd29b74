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

func TestBusRouting(t *testing.T) {
	b := newRouter()
	var gotKey []string
	b.Subscribe(PerSession, "s1", func(s Signal) { gotKey = append(gotKey, "s1:"+s.Key) })
	b.Subscribe(PerSession, "", func(s Signal) { gotKey = append(gotKey, "any:"+s.Key) })
	b.Subscribe(PerNode, "", func(s Signal) { gotKey = append(gotKey, "node:"+s.Key) })

	b.PublishKey(PerSession, b.Key(PerSession, "s1"), 1, 0)
	b.PublishKey(PerSession, b.Key(PerSession, "s2"), 2, 0)
	want := []string{"s1:s1", "any:s1", "any:s2"}
	if len(gotKey) != len(want) {
		t.Fatalf("got %v", gotKey)
	}
	for i := range want {
		if gotKey[i] != want[i] {
			t.Fatalf("got %v, want %v", gotKey, want)
		}
	}
	if b.Published[PerSession] != 2 || b.Published[PerNode] != 0 {
		t.Fatalf("published = %v", b.Published)
	}
}

func TestBusAblation(t *testing.T) {
	b := newRouter()
	fired := 0
	b.Subscribe(PerPacket, "", func(Signal) { fired++ })
	k := b.Key(PerPacket, "")
	b.Enable(PerPacket, false)
	b.PublishKey(PerPacket, k, 0, 0)
	if fired != 0 || b.Suppressed != 1 {
		t.Fatalf("fired=%d suppressed=%d", fired, b.Suppressed)
	}
	b.Enable(PerPacket, true)
	b.PublishKey(PerPacket, k, 0, 0)
	if fired != 1 {
		t.Fatal("re-enabled dimension dead")
	}
}

func TestEnableOnly(t *testing.T) {
	b := newRouter()
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

func TestPublishBadDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newRouter().PublishKey(NumDimensions, 0, 0, 0)
}
