package kq

import (
	"math"
	"testing"
	"testing/quick"
)

func TestObserveAndDecay(t *testing.T) {
	s := NewStore(10, 0.5, 0) // half-life 10 s
	s.Observe("f", 4, 0)
	if a := s.Activation("f", 0); a != 4 {
		t.Fatalf("activation = %v", a)
	}
	if a := s.Activation("f", 10); math.Abs(a-2) > 1e-9 {
		t.Fatalf("after one half-life = %v", a)
	}
	if a := s.Activation("f", 30); math.Abs(a-0.5) > 1e-9 {
		t.Fatalf("after three half-lives = %v", a)
	}
	if s.Activation("missing", 0) != 0 {
		t.Fatal("absent fact has activation")
	}
}

func TestObserveAccumulates(t *testing.T) {
	s := NewStore(10, 0.5, 0)
	s.Observe("f", 1, 0)
	s.Observe("f", 1, 10) // decayed to 0.5, +1 = 1.5
	if a := s.Activation("f", 10); math.Abs(a-1.5) > 1e-9 {
		t.Fatalf("accumulated = %v", a)
	}
}

func TestAliveAndSweep(t *testing.T) {
	s := NewStore(1, 0.5, 0)
	s.Observe("hot", 100, 0)
	s.Observe("cold", 0.6, 0)
	if !s.Alive("hot", 0) || !s.Alive("cold", 0) {
		t.Fatal("fresh facts should be alive")
	}
	// After 2 s: cold = 0.15 < 0.5, hot = 25 ≥ 0.5.
	evicted := s.Sweep(2)
	if len(evicted) != 1 || evicted[0] != "cold" {
		t.Fatalf("evicted = %v", evicted)
	}
	if len(s.facts) != 1 || !s.Alive("hot", 2) {
		t.Fatal("hot fact lost")
	}
	if s.Evicted != 1 {
		t.Fatalf("evicted counter = %d", s.Evicted)
	}
}

func TestCapacityEvictsWeakest(t *testing.T) {
	s := NewStore(10, 0.1, 2)
	s.Observe("a", 1, 0)
	s.Observe("b", 5, 0)
	s.Observe("c", 3, 0) // evicts a (weakest)
	if len(s.facts) != 2 {
		t.Fatalf("len = %d", len(s.facts))
	}
	if s.Activation("a", 0) != 0 {
		t.Fatal("weakest not evicted")
	}
	if s.Activation("b", 0) == 0 || s.Activation("c", 0) == 0 {
		t.Fatal("wrong victim")
	}
}

func TestLifetimePrediction(t *testing.T) {
	s := NewStore(10, 0.5, 0)
	s.Observe("f", 4, 0)
	// 4 → 0.5 takes 3 half-lives = 30 s.
	if lt := s.Lifetime("f", 0); math.Abs(lt-30) > 1e-9 {
		t.Fatalf("lifetime = %v", lt)
	}
	if !s.Alive("f", 29.9) || s.Alive("f", 30.1) {
		t.Fatal("lifetime prediction inconsistent with Alive")
	}
	if s.Lifetime("missing", 0) != 0 {
		t.Fatal("missing fact lifetime")
	}
}

func TestLifetimeMatchesAliveProperty(t *testing.T) {
	if err := quick.Check(func(w uint8, dt uint8) bool {
		weight := float64(w%100) + 1
		s := NewStore(5, 1, 0)
		s.Observe("x", weight, 0)
		lt := s.Lifetime("x", 0)
		at := float64(dt % 50)
		alive := s.Alive("x", at)
		return alive == (at <= lt+1e-9)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNetFunctionAllFacts(t *testing.T) {
	s := NewStore(10, 0.5, 0)
	nf := &NetFunction{Name: "fusion", Requires: []FactID{"a", "b"}}
	if nf.Alive(s, 0) {
		t.Fatal("function alive with no facts")
	}
	s.Observe("a", 2, 0)
	if nf.Alive(s, 0) {
		t.Fatal("function alive with one of two facts")
	}
	s.Observe("b", 2, 0)
	if !nf.Alive(s, 0) {
		t.Fatal("function dead with all facts")
	}
}

func TestNetFunctionMinAlive(t *testing.T) {
	s := NewStore(10, 0.5, 0)
	nf := &NetFunction{Name: "cache", Requires: []FactID{"a", "b", "c"}, MinAlive: 2}
	s.Observe("a", 2, 0)
	if nf.Alive(s, 0) {
		t.Fatal("alive with 1 of 2 needed")
	}
	s.Observe("c", 2, 0)
	if !nf.Alive(s, 0) {
		t.Fatal("dead with 2 of 2 needed")
	}
}

func TestNetFunctionLifetimeTracksFacts(t *testing.T) {
	s := NewStore(10, 0.5, 0)
	s.Observe("a", 4, 0)  // lifetime 30
	s.Observe("b", 16, 0) // lifetime 50
	all := &NetFunction{Name: "f", Requires: []FactID{"a", "b"}}
	if lt := all.Lifetime(s, 0); math.Abs(lt-30) > 1e-9 {
		t.Fatalf("all-facts lifetime = %v, want min", lt)
	}
	any := &NetFunction{Name: "g", Requires: []FactID{"a", "b"}, MinAlive: 1}
	if lt := any.Lifetime(s, 0); math.Abs(lt-50) > 1e-9 {
		t.Fatalf("any-fact lifetime = %v, want max", lt)
	}
}

func TestFactExchangeProlongsFunction(t *testing.T) {
	// Definition 3.3: "through the exchange and generation of new facts it
	// is possible to modify functions to prolong their lifetime."
	s := NewStore(10, 0.5, 0)
	s.Observe("a", 4, 0)
	nf := &NetFunction{Name: "f", Requires: []FactID{"a"}}
	before := nf.Lifetime(s, 0)
	q := &Quantum{Function: *nf, Facts: []FactRecord{{ID: "a", Weight: 4}}}
	q.Absorb(s, 5)
	after := 5 + nf.Lifetime(s, 5)
	if after <= before {
		t.Fatalf("absorbing a quantum did not prolong function life: %v -> %v", before, after)
	}
}

func TestQuantumCodecRoundTrip(t *testing.T) {
	q := &Quantum{
		Function: NetFunction{Name: "transcode", Requires: []FactID{"x", "y"}, MinAlive: 1},
		Facts:    []FactRecord{{ID: "x", Weight: 1.5}, {ID: "y", Weight: 0.25}},
	}
	e := &encoder{}
	encodeQuantum(e, q)
	got, err := decodeQuantum(&decoder{buf: e.buf})
	if err != nil {
		t.Fatal(err)
	}
	if got.Function.Name != "transcode" || got.Function.MinAlive != 1 ||
		len(got.Function.Requires) != 2 || len(got.Facts) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if got.Facts[0] != (FactRecord{ID: "x", Weight: 1.5}) {
		t.Fatalf("fact 0 = %+v", got.Facts[0])
	}
}

func TestGenomeRoundTrip(t *testing.T) {
	g := &Genome{
		ShipClass: 3,
		Roles:     []string{"fusion", "caching"},
		Quanta: []Quantum{{
			Function: NetFunction{Name: "f", Requires: []FactID{"a"}},
			Facts:    []FactRecord{{ID: "a", Weight: 2}},
		}},
		Program: []byte{9, 8},
	}
	got, err := DecodeGenome(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ShipClass != 3 || len(got.Roles) != 2 || got.Roles[1] != "caching" {
		t.Fatalf("decoded %+v", got)
	}
	if len(got.Quanta) != 1 || got.Quanta[0].Function.Name != "f" {
		t.Fatalf("quanta %+v", got.Quanta)
	}
	if string(got.Program) != string([]byte{9, 8}) {
		t.Fatalf("program %v", got.Program)
	}
}

func TestGenomeEmptyRoundTrip(t *testing.T) {
	g := &Genome{}
	got, err := DecodeGenome(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ShipClass != 0 || got.Roles != nil || got.Quanta != nil || got.Program != nil {
		t.Fatalf("decoded %+v", got)
	}
}

func TestGenomeRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, {0}, {genomeMagic}, {genomeMagic, 1, 0xFF}}
	for i, b := range cases {
		if _, err := DecodeGenome(b); err == nil {
			t.Fatalf("case %d decoded", i)
		}
	}
	good := (&Genome{Roles: []string{"r"}}).Encode()
	if _, err := DecodeGenome(append(good, 7)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestGenomeRejectsNegativeWeight(t *testing.T) {
	q := &Quantum{Function: NetFunction{Name: "f"}, Facts: []FactRecord{{ID: "a", Weight: -1}}}
	g := &Genome{Quanta: []Quantum{*q}}
	if _, err := DecodeGenome(g.Encode()); err == nil {
		t.Fatal("negative weight decoded")
	}
}

func TestGenomePropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(class uint8, roles []string, factW float64) bool {
		if len(roles) > 20 {
			roles = roles[:20]
		}
		for _, r := range roles {
			if len(r) > 100 {
				return true
			}
		}
		w := math.Abs(factW)
		if math.IsInf(w, 0) || math.IsNaN(w) {
			return true
		}
		g := &Genome{ShipClass: class, Roles: roles,
			Quanta: []Quantum{{Function: NetFunction{Name: "n"}, Facts: []FactRecord{{ID: "i", Weight: w}}}}}
		got, err := DecodeGenome(g.Encode())
		if err != nil {
			return false
		}
		if got.ShipClass != class || len(got.Roles) != len(roles) {
			return false
		}
		for i := range roles {
			if got.Roles[i] != roles[i] {
				return false
			}
		}
		return got.Quanta[0].Facts[0].Weight == w
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreFactsSorted(t *testing.T) {
	s := NewStore(10, 0.5, 0)
	for _, id := range []FactID{"z", "m", "a"} {
		s.Observe(id, 5, 0)
	}
	facts := s.Facts(0)
	if len(facts) != 3 || facts[0] != "a" || facts[2] != "z" {
		t.Fatalf("facts = %v", facts)
	}
}

func TestDeterministicCapacityEviction(t *testing.T) {
	// Equal activations: eviction must still be deterministic (by ID).
	run := func() FactID {
		s := NewStore(10, 0.1, 3)
		s.Observe("c", 1, 0)
		s.Observe("a", 1, 0)
		s.Observe("b", 1, 0)
		s.Observe("d", 1, 0) // one of a/b/c must go — deterministically
		for _, id := range []FactID{"a", "b", "c"} {
			if s.Activation(id, 0) == 0 {
				return id
			}
		}
		return ""
	}
	first := run()
	if first == "" {
		t.Fatal("nothing evicted")
	}
	for i := 0; i < 10; i++ {
		if run() != first {
			t.Fatal("nondeterministic eviction")
		}
	}
}
