package shuttle

import (
	"errors"
	"testing"

	"viator/internal/ployon"
)

func TestNewShuttleDefaults(t *testing.T) {
	s := New(7, Data, 1, 2, ployon.ClassClient)
	if s.ID != 7 || s.Kind != Data || s.Src != 1 || s.Dst != 2 {
		t.Fatalf("shuttle = %+v", s)
	}
	if s.Shape != ployon.CanonicalShape(ployon.ClassClient) {
		t.Fatal("shape not canonical for class")
	}
}

func TestWireSizeAccounting(t *testing.T) {
	s := New(1, Code, 0, 1, ployon.ClassServer)
	base := s.WireSize()
	if base != HeaderBytes {
		t.Fatalf("empty shuttle = %d bytes", base)
	}
	s.Code = make([]byte, 100)
	s.CodeID = "fn"
	s.Data = make([]byte, 50)
	if s.WireSize() != HeaderBytes+100+2+50 {
		t.Fatalf("wire size = %d", s.WireSize())
	}
}

func TestMorphIncreasesCongruence(t *testing.T) {
	s := New(1, Data, 0, 1, ployon.ClassRelay)
	target := ployon.CanonicalShape(ployon.ClassServer)
	before := ployon.Congruence(s.Shape, target)
	cost := s.Morph(target, 1)
	after := ployon.Congruence(s.Shape, target)
	if after <= before {
		t.Fatalf("morph did not improve congruence: %v -> %v", before, after)
	}
	if after < 0.999 {
		t.Fatalf("full morph incomplete: %v", after)
	}
	if cost <= 0 {
		t.Fatal("distant morph was free")
	}
}

func TestMorphCostMonotone(t *testing.T) {
	// Near shapes cost less to morph than far shapes.
	near := New(1, Data, 0, 1, ployon.ClassServer)
	far := New(2, Data, 0, 1, ployon.ClassRelay)
	target := ployon.CanonicalShape(ployon.ClassServer)
	if near.Morph(target, 1) > far.Morph(target, 1) {
		t.Fatal("near morph cost exceeds far morph cost")
	}
}

func TestJetReplication(t *testing.T) {
	j := New(1, Jet, 0, 1, ployon.ClassAgent)
	j.Data = []byte{1, 2, 3}
	child, err := j.Replicate(2)
	if err != nil {
		t.Fatal(err)
	}
	if child.ID != 2 || child.Generation != 1 {
		t.Fatalf("child = %+v", child)
	}
	// Deep copy: mutating the child must not touch the parent.
	child.Data[0] = 99
	if j.Data[0] != 1 {
		t.Fatal("replication shares payload memory")
	}
}

func TestJetGenerationBound(t *testing.T) {
	j := New(1, Jet, 0, 1, ployon.ClassAgent)
	cur := j
	for g := 0; g < MaxJetGeneration; g++ {
		next, err := cur.Replicate(ployon.ID(10 + g))
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		cur = next
	}
	if _, err := cur.Replicate(99); !errors.Is(err, ErrExhausted) {
		t.Fatalf("unbounded jet: %v", err)
	}
}

func TestNonJetCannotReplicate(t *testing.T) {
	s := New(1, Data, 0, 1, ployon.ClassClient)
	if _, err := s.Replicate(2); !errors.Is(err, ErrNotJet) {
		t.Fatalf("err = %v", err)
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		n := k.String()
		if n == "" || seen[n] {
			t.Fatalf("bad kind name %q", n)
		}
		seen[n] = true
	}
}
