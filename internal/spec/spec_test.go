package spec

import (
	"testing"
)

func TestPairIndexBijective(t *testing.T) {
	const maxPairs = MaxN * (MaxN - 1) / 2 // C(MaxN,2)
	seen := map[int]bool{}
	for i := 0; i < MaxN; i++ {
		for j := i + 1; j < MaxN; j++ {
			idx := pairIndex(i, j)
			if idx < 0 || idx >= maxPairs {
				t.Fatalf("pair (%d,%d) -> %d out of range", i, j, idx)
			}
			if seen[idx] {
				t.Fatalf("pair index collision at %d", idx)
			}
			seen[idx] = true
			if pairIndex(j, i) != idx {
				t.Fatal("pair index not symmetric")
			}
		}
	}
}

func TestInitState(t *testing.T) {
	p := New(DefaultConfig())
	init := p.Init()
	if len(init) != 1 {
		t.Fatalf("init states = %d", len(init))
	}
	s := init[0]
	if !s.valid(0) || s.valid(1) || s.valid(2) || s.valid(3) {
		t.Fatalf("initial routes wrong: %v", s.Route)
	}
	if !s.linkUp(0, 1) || !s.linkUp(2, 3) {
		t.Fatal("full mesh expected")
	}
	if s.Budget != 2 {
		t.Fatalf("budget = %d", s.Budget)
	}
}

func TestSafetyHolds3Nodes(t *testing.T) {
	p := New(Config{N: 3, Budget: 2})
	res := p.CheckSafety(0)
	if !res.OK() {
		t.Fatalf("safety violated: %v", res)
	}
	if res.States < 20 {
		t.Fatalf("suspiciously small state space: %d", res.States)
	}
}

func TestSafetyHolds4Nodes(t *testing.T) {
	p := New(DefaultConfig())
	res := p.CheckSafety(0)
	if !res.OK() {
		if len(res.Violations) > 0 {
			v := res.Violations[0]
			t.Fatalf("invariant %s violated, trace length %d: %+v", v.Invariant, len(v.Trace), v.State)
		}
		t.Fatalf("not OK: %v", res)
	}
	t.Logf("4-node safety: %v", res)
}

func TestLivenessHolds3Nodes(t *testing.T) {
	p := New(Config{N: 3, Budget: 2})
	res := p.CheckLiveness(0)
	if !res.Holds {
		t.Fatalf("liveness failed: %+v", res)
	}
	if res.Checked == 0 {
		t.Fatal("no stable-connected states checked")
	}
}

func TestLivenessHolds4Nodes(t *testing.T) {
	p := New(DefaultConfig())
	res := p.CheckLiveness(0)
	if !res.Holds {
		t.Fatalf("liveness failed from state %+v (%s)", res.Witness, res.Reason)
	}
}

func TestLivenessVacuousWhenDisconnected(t *testing.T) {
	// A permanently partitioned topology with no budget: the premise
	// (connected) never holds, so leads-to holds vacuously with zero
	// checked states.
	p := New(Config{N: 3, Budget: 0, InitialLinks: [][2]int{{0, 1}}})
	res := p.CheckLiveness(0)
	if !res.Holds || res.Checked != 0 {
		t.Fatalf("vacuous case: %+v", res)
	}
}

func TestPartitionedNodesNeverRoute(t *testing.T) {
	// Node 2 isolated, no topology budget: exhaustive check that node 2
	// never acquires a route (no magic routes).
	p := New(Config{N: 3, Budget: 0, InitialLinks: [][2]int{{0, 1}}})
	sys := p.System()
	states := []State{}
	seen := map[State]bool{}
	queue := p.Init()
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if seen[s] {
			continue
		}
		seen[s] = true
		states = append(states, s)
		queue = append(queue, sys.Next(s)...)
	}
	for _, s := range states {
		if s.valid(2) {
			t.Fatalf("isolated node routed: %+v", s)
		}
	}
}

func TestCascadeInvalidatesTransitively(t *testing.T) {
	p := New(Config{N: 4, Budget: 1, InitialLinks: [][2]int{{0, 1}, {1, 2}, {2, 3}}})
	// Build the chain 3→2→1→0 manually.
	s := p.Init()[0]
	s.Route[1], s.Hops[1] = 0, 1
	s.Route[2], s.Hops[2] = 1, 2
	s.Route[3], s.Hops[3] = 2, 3
	// Cut link 0-1: everything downstream must invalidate atomically.
	t2 := s
	t2.Links ^= 1 << pairIndex(0, 1)
	t2.Budget--
	t2 = p.cascade(t2)
	for n := 1; n <= 3; n++ {
		if t2.valid(n) {
			t.Fatalf("node %d survived upstream cut", n)
		}
	}
}

func TestBudgetExhaustionFreezesTopology(t *testing.T) {
	p := New(Config{N: 3, Budget: 0})
	s := p.Init()[0]
	for _, succ := range p.Next(s) {
		if succ.Links != s.Links {
			t.Fatal("topology changed with zero budget")
		}
	}
}

func TestStateSpaceGrowsWithBudget(t *testing.T) {
	small := New(Config{N: 3, Budget: 1}).CheckSafety(0)
	large := New(Config{N: 3, Budget: 3}).CheckSafety(0)
	if large.States <= small.States {
		t.Fatalf("budget 3 states (%d) <= budget 1 states (%d)", large.States, small.States)
	}
}

func TestFiveNodeBoundedCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("5-node space is large")
	}
	p := New(Config{N: 5, Budget: 1})
	res := p.CheckSafety(200000)
	if len(res.Violations) != 0 {
		t.Fatalf("violations in 5-node model: %+v", res.Violations[0])
	}
}

func TestCheckerFindsInjectedBug(t *testing.T) {
	// Remove the error cascade: after a link goes down, routes keep
	// pointing across it. The checker must find the NextHopValid
	// violation and hand back a counterexample trace — the sanity
	// experiment that validates the verification pipeline itself.
	p := New(Config{N: 3, Budget: 1, DisableErrorCascade: true})
	res := p.CheckSafety(0)
	if res.OK() {
		t.Fatal("checker missed the injected bug")
	}
	if len(res.Violations) == 0 {
		t.Fatalf("no violations recorded: %v", res)
	}
	v := res.Violations[0]
	if v.Invariant != "NextHopValid" {
		t.Fatalf("violated invariant = %s", v.Invariant)
	}
	if len(v.Trace) < 2 {
		t.Fatalf("counterexample too short: %d states", len(v.Trace))
	}
	// The trace must end in the bad state.
	if v.Trace[len(v.Trace)-1] != v.State {
		t.Fatal("trace does not end at the violation")
	}
}

func TestBuggyVariantStillSafeWithoutTopologyChanges(t *testing.T) {
	// With zero budget the cascade never runs anyway: the buggy variant
	// is equivalent to the correct protocol, and stays safe.
	p := New(Config{N: 3, Budget: 0, DisableErrorCascade: true})
	if !p.CheckSafety(0).OK() {
		t.Fatal("bug manifests without topology changes")
	}
}
