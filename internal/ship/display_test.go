package ship

import (
	"reflect"
	"testing"

	"viator/internal/allocpin"
	"viator/internal/ployon"
	"viator/internal/roles"
)

// TestDisplayedModalRoleMatchesDescribe pins the refactor invariant the
// gossip layer relies on: DisplayedModalRole is exactly Roles[0] of the
// ship's full self-description — truthful for fair ships, shifted by one
// kind for unfair ones — so comparing kinds is equivalent to comparing
// the strings Describe would have built.
func TestDisplayedModalRoleMatchesDescribe(t *testing.T) {
	for _, fair := range []bool{true, false} {
		cfg := DefaultConfig(1, ployon.ClassServer)
		cfg.Fair = fair
		s := New(cfg)
		if err := s.Birth(); err != nil {
			t.Fatal(err)
		}
		for _, k := range []roles.Kind{roles.Fusion, roles.Caching, roles.Transcoding} {
			if _, err := s.SetModalRole(k); err != nil {
				t.Fatal(err)
			}
			d := s.Describe()
			if got, want := s.DisplayedModalRole().String(), d.Roles[0]; got != want {
				t.Fatalf("fair=%v role=%v: DisplayedModalRole %q != Describe Roles[0] %q", fair, k, got, want)
			}
			if truthful := s.DisplayedModalRole() == s.ModalRole(); truthful != fair {
				t.Fatalf("fair=%v role=%v: truthful=%v", fair, k, truthful)
			}
		}
	}
}

// TestAuxRolesIntoMatchesAuxRoles pins the scratch view against the
// allocating one across installs.
func TestAuxRolesIntoMatchesAuxRoles(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	var buf []roles.Kind
	check := func() {
		t.Helper()
		buf = s.AuxRolesInto(buf)
		want := s.AuxRoles()
		if len(buf) == 0 && len(want) == 0 {
			return
		}
		got := append([]roles.Kind(nil), buf...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AuxRolesInto %v != AuxRoles %v", got, want)
		}
	}
	check()
	for _, k := range []roles.Kind{roles.Combining, roles.Filtering} {
		if err := s.InstallAux(k); err != nil {
			t.Fatal(err)
		}
		check()
	}
}

// TestDisplayPathsAllocFree pins the probe-path accessors the gossip
// round leans on.
func TestDisplayPathsAllocFree(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassServer)
	if err := s.InstallAux(roles.Combining); err != nil {
		t.Fatal(err)
	}
	var sink roles.Kind
	allocpin.Zero(t, 100, func() {
		sink = s.DisplayedModalRole()
	}, "(*Ship).DisplayedModalRole")
	_ = sink
}
