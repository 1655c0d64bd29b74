package ployon

import (
	"math"
	"testing"
	"testing/quick"
)

func randomShape(seed int64) Shape {
	var s Shape
	x := uint64(seed)
	for i := range s {
		x = x*6364136223846793005 + 1442695040888963407
		s[i] = float64(x%1000) / 999
	}
	return s
}

func TestCongruenceIdentity(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		s := randomShape(seed)
		return math.Abs(Congruence(s, s)-1) < 1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCongruenceSymmetric(t *testing.T) {
	if err := quick.Check(func(a, b int64) bool {
		x, y := randomShape(a), randomShape(b)
		return math.Abs(Congruence(x, y)-Congruence(y, x)) < 1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCongruenceRange(t *testing.T) {
	zero := Shape{}
	one := Shape{1, 1, 1, 1, 1, 1}
	if c := Congruence(zero, one); math.Abs(c) > 1e-12 {
		t.Fatalf("opposite shapes congruence = %v", c)
	}
	if err := quick.Check(func(a, b int64) bool {
		c := Congruence(randomShape(a), randomShape(b))
		return c >= 0 && c <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMorphTowardConverges(t *testing.T) {
	from := Shape{0, 0, 0, 0, 0, 0}
	to := Shape{1, 0.5, 0.2, 0.8, 0.1, 0.9}
	cur := from
	prev := Congruence(cur, to)
	for i := 0; i < 20; i++ {
		cur = cur.MorphToward(to, 0.5)
		c := Congruence(cur, to)
		if c < prev-1e-12 {
			t.Fatalf("morphing decreased congruence at step %d", i)
		}
		prev = c
	}
	if prev < 0.999 {
		t.Fatalf("did not converge: %v", prev)
	}
}

func TestMorphFullRate(t *testing.T) {
	a, b := randomShape(1), randomShape(2)
	if got := a.MorphToward(b, 1); got != b {
		t.Fatalf("rate-1 morph incomplete: %v vs %v", got, b)
	}
	if got := a.MorphToward(b, 0); got != a {
		t.Fatal("rate-0 morph changed shape")
	}
	// Out-of-range rates clamp.
	if got := a.MorphToward(b, 5); got != b {
		t.Fatal("rate > 1 not clamped")
	}
}

func TestMorphPreservesValidity(t *testing.T) {
	if err := quick.Check(func(a, b int64, r float64) bool {
		s := randomShape(a).MorphToward(randomShape(b), math.Abs(r))
		return s.Valid()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMorphCost(t *testing.T) {
	a := Shape{0, 0, 0, 0, 0, 0}
	if MorphCost(a, a, 1000) != 0 {
		t.Fatal("identical morph costs bytes")
	}
	b := Shape{1, 1, 1, 1, 1, 1}
	if MorphCost(a, b, 1000) != 1000 {
		t.Fatalf("full morph cost = %d", MorphCost(a, b, 1000))
	}
	// Monotone: closer shapes cost less.
	mid := Shape{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	if MorphCost(a, mid, 1000) >= MorphCost(a, b, 1000) {
		t.Fatal("cost not monotone in distance")
	}
}

func TestCanonicalShapesSeparated(t *testing.T) {
	// Classes must be mutually distinguishable: inter-class congruence
	// strictly below self-congruence.
	for a := Class(0); a < NumClasses; a++ {
		if !CanonicalShape(a).Valid() {
			t.Fatalf("class %v has invalid canonical shape", a)
		}
		for b := Class(0); b < NumClasses; b++ {
			if a == b {
				continue
			}
			c := Congruence(CanonicalShape(a), CanonicalShape(b))
			if c > 0.85 {
				t.Fatalf("classes %v and %v too similar: %v", a, b, c)
			}
		}
	}
}

func TestClassNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); c < NumClasses; c++ {
		n := c.String()
		if n == "" || seen[n] {
			t.Fatalf("bad class name %q", n)
		}
		seen[n] = true
	}
}

func TestShapeValid(t *testing.T) {
	if (Shape{0, 0, 0, 0, 0, -0.1}).Valid() {
		t.Fatal("negative feature valid")
	}
	if (Shape{0, 0, 1.1, 0, 0, 0}).Valid() {
		t.Fatal("oversized feature valid")
	}
	if !(Shape{0, 0.5, 1, 0, 0.25, 0.75}).Valid() {
		t.Fatal("good shape invalid")
	}
}
