package baseline

import (
	"testing"

	"viator/internal/sim"
	"viator/internal/topo"
	"viator/internal/vm"
)

var noop = vm.MustAssemble("PUSH 1\nHALT")

func TestANTSExecutesAtEveryHop(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.Line(4)
	a := NewANTS(k, g, 10000)
	// Pre-seed the code everywhere: pure execution path.
	for i := 0; i < g.N(); i++ {
		a.Store(topo.NodeID(i)).Put("fwd", noop)
	}
	if !a.SendCapsule(&Capsule{CodeID: "fwd", Src: 0, Dst: 3, Size: 200}) {
		t.Fatal("send failed")
	}
	k.Run(10)
	if a.Delivered != 1 {
		t.Fatalf("delivered = %d", a.Delivered)
	}
	// Executed at nodes 0,1,2,3.
	if a.Executions != 4 {
		t.Fatalf("executions = %d", a.Executions)
	}
	if a.CodePulls != 0 {
		t.Fatal("pulls despite pre-seeding")
	}
}

func TestANTSDemandCodePull(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.Line(4)
	a := NewANTS(k, g, 10000)
	// Only the sender has the code: every downstream node must pull.
	a.Store(0).Put("proto", noop)
	if !a.SendCapsule(&Capsule{CodeID: "proto", Src: 0, Dst: 3, Size: 200}) {
		t.Fatal("send failed")
	}
	k.Run(30)
	if a.Delivered != 1 {
		t.Fatalf("delivered = %d (pulls=%d)", a.Delivered, a.CodePulls)
	}
	if a.CodePulls != 3 {
		t.Fatalf("pulls = %d, want 3", a.CodePulls)
	}
	if a.ControlBytes == 0 {
		t.Fatal("control bytes unaccounted")
	}
	// The code spread along the path: ANTS-style incidental coverage.
	if cov := a.Coverage("proto"); cov != 1.0 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestANTSSecondCapsuleRidesCachedCode(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.Line(3)
	a := NewANTS(k, g, 10000)
	a.Store(0).Put("p", noop)
	a.SendCapsule(&Capsule{CodeID: "p", Src: 0, Dst: 2, Size: 100})
	k.Run(30)
	pulls := a.CodePulls
	a.SendCapsule(&Capsule{CodeID: "p", Src: 0, Dst: 2, Size: 100})
	k.Run(60)
	if a.CodePulls != pulls {
		t.Fatalf("second capsule re-pulled: %d -> %d", pulls, a.CodePulls)
	}
	if a.Delivered != 2 {
		t.Fatalf("delivered = %d", a.Delivered)
	}
}

func TestANTSSenderWithoutCodeRefuses(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.Line(2)
	a := NewANTS(k, g, 1000)
	if a.SendCapsule(&Capsule{CodeID: "nope", Src: 0, Dst: 1, Size: 10}) {
		t.Fatal("capsule sent without code")
	}
}

func TestANTSFailingRoutineDropsCapsule(t *testing.T) {
	k := sim.NewKernel(1)
	g := topo.Line(2)
	a := NewANTS(k, g, 1000)
	bad := vm.MustAssemble("loop: JMP loop")
	a.Store(0).Put("bad", bad)
	a.SendCapsule(&Capsule{CodeID: "bad", Src: 0, Dst: 1, Size: 10})
	k.Run(10)
	if a.ExecFailures == 0 || a.Delivered != 0 {
		t.Fatalf("failures=%d delivered=%d", a.ExecFailures, a.Delivered)
	}
}

func TestANTSCoverageGrowsWithTraffic(t *testing.T) {
	// Demand distribution covers exactly the nodes traffic touches — the
	// 1G weakness experiment E1 quantifies.
	k := sim.NewKernel(1)
	g := topo.Star(6)
	a := NewANTS(k, g, 10000)
	a.Store(1).Put("svc", noop)
	a.SendCapsule(&Capsule{CodeID: "svc", Src: 1, Dst: 2, Size: 100})
	k.Run(50)
	cov := a.Coverage("svc")
	// Path 1-0-2: 3 of 6 nodes.
	if cov != 0.5 {
		t.Fatalf("coverage = %v, want 0.5", cov)
	}
	// Leaves 3,4,5 untouched: demand pull never reaches them.
	for _, n := range []topo.NodeID{3, 4, 5} {
		if a.Store(n).Has("svc") {
			t.Fatal("untouched node has code")
		}
	}
}
