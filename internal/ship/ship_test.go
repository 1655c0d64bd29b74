package ship

import (
	"errors"
	"testing"

	"viator/internal/kq"
	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/shuttle"
	"viator/internal/vm"
)

func newAlive(t *testing.T, id ployon.ID, class ployon.Class) *Ship {
	t.Helper()
	s := New(DefaultConfig(id, class))
	if err := s.Birth(); err != nil {
		t.Fatal(err)
	}
	return s
}

// congruentShuttle builds a shuttle already morphed to the ship's shape.
func congruentShuttle(sp *Ship, id ployon.ID, kind shuttle.Kind) *shuttle.Shuttle {
	sh := shuttle.New(id, kind, 0, int32(sp.ID), sp.Class)
	sh.Shape = sp.Shape
	return sh
}

func TestLifecycle(t *testing.T) {
	s := New(DefaultConfig(1, ployon.ClassServer))
	if s.State() != Born {
		t.Fatalf("state = %v", s.State())
	}
	if err := s.Birth(); err != nil || s.State() != Alive {
		t.Fatalf("birth: %v, %v", err, s.State())
	}
	s.Kill()
	if s.State() != Dead {
		t.Fatal("not dead")
	}
	if err := s.Birth(); !errors.Is(err, ErrDead) {
		t.Fatalf("resurrection allowed: %v", err)
	}
	if _, err := s.Dock(congruentShuttle(s, 9, shuttle.Data), 0); !errors.Is(err, ErrNotBorn) {
		t.Fatalf("dead ship docked: %v", err)
	}
}

func TestModalRoleSingleFunction(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	lat, err := s.SetModalRole(roles.Fusion)
	if err != nil || lat <= 0 {
		t.Fatalf("switch: %v, %v", lat, err)
	}
	if s.ModalRole() != roles.Fusion {
		t.Fatal("role not set")
	}
	// Same role again is free.
	lat, err = s.SetModalRole(roles.Fusion)
	if err != nil || lat != 0 {
		t.Fatalf("idempotent switch cost %v", lat)
	}
	if s.RoleSwitches() != 1 {
		t.Fatalf("switches = %d", s.RoleSwitches())
	}
}

func TestGeneration1CannotChangeRole(t *testing.T) {
	cfg := DefaultConfig(1, ployon.ClassRelay)
	cfg.Generation = 1
	s := New(cfg)
	s.Birth()
	if _, err := s.SetModalRole(roles.Caching); !errors.Is(err, ErrGeneration) {
		t.Fatalf("1G role change allowed: %v", err)
	}
}

func TestGeneration3HasFabricAnd2Not(t *testing.T) {
	cfg := DefaultConfig(1, ployon.ClassRelay)
	cfg.Generation = 2
	if New(cfg).Fabric != nil {
		t.Fatal("2G ship has fabric")
	}
	cfg.Generation = 3
	s := New(cfg)
	if s.Fabric == nil {
		t.Fatal("3G ship lacks fabric")
	}
	s.Birth()
	lat, err := s.SetModalRole(roles.Boosting)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= softRoleSwitchLatency {
		t.Fatal("3G role switch did not touch hardware")
	}
}

func TestAuxInstallAndRemove(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	if err := s.InstallAux(roles.Transcoding); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallAux(roles.Transcoding); err != nil {
		t.Fatal("duplicate install should be idempotent")
	}
	if len(s.AuxRoles()) != 1 {
		t.Fatalf("aux = %v", s.AuxRoles())
	}
	if _, ok := s.Processor(roles.Transcoding); !ok {
		t.Fatal("aux processor missing")
	}
	ees := s.OS.EEs()
	if len(ees) != 2 || ees[1] != "aux:transcoding" {
		t.Fatalf("EEs = %v", ees)
	}
}

func TestDockCongruenceGate(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	// A relay-shaped shuttle at a server ship: low congruence, rejected.
	sh := shuttle.New(5, shuttle.Data, 0, 1, ployon.ClassRelay)
	if _, err := s.Dock(sh, 0); !errors.Is(err, ErrIncongruent) {
		t.Fatalf("incongruent docked: %v", err)
	}
	if s.RejectedDock != 1 {
		t.Fatalf("rejected = %d", s.RejectedDock)
	}
	// After morphing toward the ship's class it docks.
	sh.Morph(ployon.CanonicalShape(sh.DstClass), 1)
	sh.DstClass = ployon.ClassServer
	sh.Morph(ployon.CanonicalShape(ployon.ClassServer), 1)
	res, err := s.Dock(sh, 0)
	if err != nil || !res.Accepted {
		t.Fatalf("morphing did not fix docking: %v", err)
	}
	if s.Docked != 1 {
		t.Fatalf("docked = %d", s.Docked)
	}
}

func TestDockAdaptsShipShape(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	sh := congruentShuttle(s, 2, shuttle.Data)
	// Perturb the shuttle shape within tolerance.
	sh.Shape[0] = clamp01(sh.Shape[0] + 0.2)
	before := s.Shape
	if _, err := s.Dock(sh, 0); err != nil {
		t.Fatal(err)
	}
	if s.Shape == before {
		t.Fatal("ship did not adapt a posteriori")
	}
	if ployon.Congruence(s.Shape, sh.Shape) <= ployon.Congruence(before, sh.Shape) {
		t.Fatal("adaptation moved away from shuttle")
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestCodeShuttleInstalls(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	sh := congruentShuttle(s, 3, shuttle.Code)
	sh.CodeID = "booster-v1"
	sh.Code = vm.Encode(vm.MustAssemble("PUSH 1\nHALT"))
	res, err := s.Dock(sh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.InstalledCode != "booster-v1" || !s.OS.Store.Has("booster-v1") {
		t.Fatal("code not installed")
	}
	// Malformed code is refused.
	bad := congruentShuttle(s, 4, shuttle.Code)
	bad.CodeID = "junk"
	bad.Code = []byte{0xFF, 0x01}
	if _, err := s.Dock(bad, 0); err == nil {
		t.Fatal("garbage code installed")
	}
}

// parity8 is hw.Parity(8, 8) in the bitstream wire format that
// hw.DecodeBitstream reads.
var parity8 = []byte{0xb5, 0x8, 0x7,
	0x0, 0x1, 0x0, 0x0, 0xe6, 0xcc, 0x1,
	0x2, 0x3, 0x0, 0x0, 0xe6, 0xcc, 0x1,
	0x4, 0x5, 0x0, 0x0, 0xe6, 0xcc, 0x1,
	0x6, 0x7, 0x0, 0x0, 0xe6, 0xcc, 0x1,
	0x8, 0x9, 0x0, 0x0, 0xe6, 0xcc, 0x1,
	0xa, 0xb, 0x0, 0x0, 0xe6, 0xcc, 0x1,
	0xc, 0xd, 0x0, 0x0, 0xe6, 0xcc,
	0x1, 0x1, 0xe}

func TestGenomeShuttleReconfigures(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	g := &kq.Genome{
		ShipClass: uint8(ployon.ClassServer),
		Roles:     []string{"fusion", "transcoding"},
		Quanta: []kq.Quantum{{
			Function: kq.NetFunction{Name: "fusion", Requires: []kq.FactID{"load"}},
			Facts:    []kq.FactRecord{{ID: "load", Weight: 5}},
		}},
		Bitstream: parity8,
	}
	sh := congruentShuttle(s, 5, shuttle.Gene)
	sh.Genome = g.Encode()
	res, err := s.Dock(sh, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reconfigured {
		t.Fatal("genome did not reconfigure")
	}
	if s.ModalRole() != roles.Fusion {
		t.Fatalf("modal = %v", s.ModalRole())
	}
	if len(s.AuxRoles()) != 1 || s.AuxRoles()[0] != roles.Transcoding {
		t.Fatalf("aux = %v", s.AuxRoles())
	}
	if !s.KB.Alive("load", 10) {
		t.Fatal("quantum facts not absorbed")
	}
	if res.Latency <= dockBaseLatency {
		t.Fatal("reconfiguration was free")
	}
}

func TestGenomeNeedsGeneration4(t *testing.T) {
	cfg := DefaultConfig(1, ployon.ClassServer)
	cfg.Generation = 3
	s := New(cfg)
	s.Birth()
	sh := congruentShuttle(s, 6, shuttle.Gene)
	sh.Genome = (&kq.Genome{Roles: []string{"fusion"}}).Encode()
	if _, err := s.Dock(sh, 0); !errors.Is(err, ErrGeneration) {
		t.Fatalf("3G ship accepted genome: %v", err)
	}
}

func TestJetExecutesAndReplicates(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassAgent)
	// Jet program: set role to caching (2), emit fact 7 weight 3,
	// replicate twice, return replica count.
	src := `
		PUSH 2
		HOST 2      ; set role
		POP
		PUSH 7
		PUSH 3
		HOST 3      ; emit fact
		PUSH 2
		HOST 7      ; replicate
		HALT`
	jet := congruentShuttle(s, 7, shuttle.Jet)
	jet.Code = vm.Encode(vm.MustAssemble(src))
	res, err := s.Dock(jet, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != 2 || len(res.Replicas) != 2 {
		t.Fatalf("result=%d replicas=%d", res.Result, len(res.Replicas))
	}
	if s.ModalRole() != roles.Caching {
		t.Fatalf("jet did not set role: %v", s.ModalRole())
	}
	if !s.KB.Alive("fact:7", 5) {
		t.Fatal("jet fact missing")
	}
	for _, r := range res.Replicas {
		if r.Generation != 1 || r.ID == jet.ID {
			t.Fatalf("replica = %+v", r)
		}
	}
}

func TestJetReplicationBoundedByGeneration(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassAgent)
	jet := congruentShuttle(s, 8, shuttle.Jet)
	jet.Generation = shuttle.MaxJetGeneration // exhausted
	jet.Code = vm.Encode(vm.MustAssemble("PUSH 5\nHOST 7\nHALT"))
	res, err := s.Dock(jet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != 0 || len(res.Replicas) != 0 {
		t.Fatalf("exhausted jet replicated: %d", len(res.Replicas))
	}
}

func TestJetGasBound(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassAgent)
	jet := congruentShuttle(s, 9, shuttle.Jet)
	jet.Code = vm.Encode(vm.MustAssemble("loop: JMP loop"))
	if _, err := s.Dock(jet, 0); err == nil {
		t.Fatal("runaway jet completed")
	}
	if s.ExecFailed != 1 {
		t.Fatalf("exec failed = %d", s.ExecFailed)
	}
}

func TestProbeGetsDescription(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	s.SetModalRole(roles.Fusion)
	s.InstallAux(roles.Boosting)
	res, err := s.Dock(congruentShuttle(s, 10, shuttle.Probe), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Description == nil {
		t.Fatal("no description")
	}
	if res.Description.Roles[0] != "fusion" || res.Description.Roles[1] != "boosting" {
		t.Fatalf("described roles = %v", res.Description.Roles)
	}
}

func TestUnfairShipMisreports(t *testing.T) {
	cfg := DefaultConfig(1, ployon.ClassServer)
	cfg.Fair = false
	s := New(cfg)
	s.Birth()
	s.SetModalRole(roles.Fusion)
	d := s.Describe()
	if d.Roles[0] == "fusion" {
		t.Fatal("unfair ship told the truth")
	}
	if s.Fair() {
		t.Fatal("fairness flag wrong")
	}
}

func TestEmitGenomeRoundTripsToNewShip(t *testing.T) {
	// Node genesis: a ship's genome, applied at a fresh ship, reproduces
	// its roles and facts — the autopoietic reproduction step.
	src := newAlive(t, 1, ployon.ClassServer)
	src.SetModalRole(roles.Transcoding)
	src.InstallAux(roles.Caching)
	src.KB.Observe("traffic", 10, 0)
	g, err := src.EmitGenome(0)
	if err != nil {
		t.Fatal(err)
	}
	dst := newAlive(t, 2, ployon.ClassServer)
	sh := congruentShuttle(dst, 11, shuttle.Gene)
	sh.Genome = g.Encode()
	if _, err := dst.Dock(sh, 1); err != nil {
		t.Fatal(err)
	}
	if dst.ModalRole() != roles.Transcoding {
		t.Fatalf("cloned modal = %v", dst.ModalRole())
	}
	if len(dst.AuxRoles()) != 1 || dst.AuxRoles()[0] != roles.Caching {
		t.Fatalf("cloned aux = %v", dst.AuxRoles())
	}
	if !dst.KB.Alive("traffic", 1) {
		t.Fatal("facts did not transfer")
	}
}

func TestEmitGenomeNeedsGen4(t *testing.T) {
	cfg := DefaultConfig(1, ployon.ClassServer)
	cfg.Generation = 2
	s := New(cfg)
	s.Birth()
	if _, err := s.EmitGenome(0); !errors.Is(err, ErrGeneration) {
		t.Fatalf("2G emitted genome: %v", err)
	}
}

func TestNextStepSwitchIsStandardModule(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassRelay)
	s.NextStep().Set(roles.Fusion)
	k, ok := s.NextStep().Next()
	if !ok || k != roles.Fusion {
		t.Fatalf("next = %v", k)
	}
}

func TestDataShuttleFlowsThroughModalRole(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	s.SetModalRole(roles.Fission)
	sh := congruentShuttle(s, 12, shuttle.Data)
	if _, err := s.Dock(sh, 0); err != nil {
		t.Fatal(err)
	}
	st := s.ModalProcessor().Stats()
	if st.ChunksIn != 1 || st.ChunksOut != 2 { // default fission = 2 copies
		t.Fatalf("modal stats = %+v", st)
	}
}
