package ship

import (
	"testing"
	"viator/internal/nodeos"

	"viator/internal/kq"
	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/shuttle"
	"viator/internal/vm"
)

func TestGenomeWithUnknownRoleRefused(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	sh := congruentShuttle(s, 2, shuttle.Gene)
	sh.Genome = (&kq.Genome{Roles: []string{"wormhole"}}).Encode()
	if _, err := s.Dock(sh, 0); err == nil {
		t.Fatal("unknown role accepted")
	}
}

func TestGenomeWithGarbagePayloadRefused(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	sh := congruentShuttle(s, 2, shuttle.Gene)
	sh.Genome = []byte{0xFF, 0x00}
	if _, err := s.Dock(sh, 0); err == nil {
		t.Fatal("garbage genome accepted")
	}
}

func TestGenomeWithBadProgramRefused(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	sh := congruentShuttle(s, 2, shuttle.Gene)
	sh.Genome = (&kq.Genome{Program: []byte{0xEE}}).Encode()
	if _, err := s.Dock(sh, 0); err == nil {
		t.Fatal("bad genome program accepted")
	}
}

func TestGenomeProgramInstalls(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	sh := congruentShuttle(s, 9, shuttle.Gene)
	sh.Genome = (&kq.Genome{Program: vm.Encode(vm.MustAssemble("HALT"))}).Encode()
	res, err := s.Dock(sh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.InstalledCode == "" || !s.OS.Store.Has(res.InstalledCode) {
		t.Fatal("genome driver not installed")
	}
}

func TestJetWithoutCodeRefused(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassAgent)
	jet := congruentShuttle(s, 3, shuttle.Jet)
	if _, err := s.Dock(jet, 0); err == nil {
		t.Fatal("codeless jet accepted")
	}
	jet.Code = []byte{0xBA, 0xD1}
	if _, err := s.Dock(jet, 0); err == nil {
		t.Fatal("garbage jet code accepted")
	}
}

func TestJetNeedsGeneration4(t *testing.T) {
	cfg := DefaultConfig(1, ployon.ClassAgent)
	cfg.Generation = 3
	s := New(cfg)
	s.Birth()
	jet := congruentShuttle(s, 3, shuttle.Jet)
	jet.Code = vm.Encode(vm.MustAssemble("HALT"))
	if _, err := s.Dock(jet, 0); err == nil {
		t.Fatal("3G ship ran a jet")
	}
}

func TestHostSetRoleRejectsBadKind(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassAgent)
	jet := congruentShuttle(s, 4, shuttle.Jet)
	jet.Code = vm.Encode(vm.MustAssemble("PUSH 99\nHOST 2\nHALT"))
	res, err := s.Dock(jet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != 0 {
		t.Fatalf("bad role kind accepted: %d", res.Result)
	}
}

func TestHostFactAliveAndSetNext(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassAgent)
	// Jet: emit fact 5 weight 9; check alive; set next role to fission.
	src := `
		PUSH 5
		PUSH 9
		HOST 3
		PUSH 5
		HOST 6      ; fact alive?
		STORE 2
		PUSH 1
		HOST 5      ; next-step = fission
		LOAD 2
		HALT`
	jet := congruentShuttle(s, 5, shuttle.Jet)
	jet.Code = vm.Encode(vm.MustAssemble(src))
	res, err := s.Dock(jet, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != 1 {
		t.Fatal("fact not alive from jet's view")
	}
	if k, ok := s.NextStep().Next(); !ok || k != roles.Fission {
		t.Fatalf("next-step = %v", k)
	}
}

func TestHostGetRoleFromJet(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassAgent)
	s.SetModalRole(roles.Delegation)
	jet := congruentShuttle(s, 6, shuttle.Jet)
	jet.Code = vm.Encode(vm.MustAssemble("HOST 1\nHALT"))
	res, err := s.Dock(jet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if roles.Kind(res.Result) != roles.Delegation {
		t.Fatalf("jet saw role %v", roles.Kind(res.Result))
	}
}

func TestCodeShuttleMissingFieldsRefused(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	sh := congruentShuttle(s, 7, shuttle.Code)
	if _, err := s.Dock(sh, 0); err == nil {
		t.Fatal("empty code shuttle accepted")
	}
}

func TestSetModalRoleOnDeadShip(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	s.Kill()
	if _, err := s.SetModalRole(roles.Fusion); err == nil {
		t.Fatal("dead ship switched roles")
	}
	if err := s.InstallAux(roles.Boosting); err == nil {
		t.Fatal("dead ship installed aux")
	}
}

func TestAuxInstallExhaustsResources(t *testing.T) {
	// Each aux takes 1/8 of free resources; installs shrink the pool but
	// never fail outright within the catalog size. Install everything.
	s := newAlive(t, 1, ployon.ClassServer)
	for _, info := range roles.Catalog() {
		if info.Modal {
			continue
		}
		if err := s.InstallAux(info.Kind); err != nil {
			t.Fatalf("install %v: %v", info.Kind, err)
		}
	}
	if len(s.AuxRoles()) != 8 {
		t.Fatalf("aux count = %d", len(s.AuxRoles()))
	}
	// All EEs fit inside the envelope.
	if !(nodeos.Resources{}).Fits(s.OS.Free()) {
		t.Fatal("oversubscribed")
	}
}

func TestStateStrings(t *testing.T) {
	if Born.String() != "born" || Alive.String() != "alive" || Dead.String() != "dead" {
		t.Fatal("state names wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state unnamed")
	}
}

func TestDescribeListsAuxInOrder(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	s.SetModalRole(roles.Fusion)
	s.InstallAux(roles.Boosting)
	s.InstallAux(roles.Filtering)
	d := s.Describe()
	if len(d.Roles) != 3 || d.Roles[1] != "boosting" || d.Roles[2] != "filtering" {
		t.Fatalf("described = %v", d.Roles)
	}
}
