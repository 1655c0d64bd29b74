package nodeos

import (
	"errors"
	"testing"
	"testing/quick"

	"viator/internal/vm"
)

func rsrc(c, m, b float64) Resources { return Resources{CPU: c, Memory: m, Bandwidth: b} }

func TestResourceArithmetic(t *testing.T) {
	a := rsrc(10, 20, 30)
	b := rsrc(1, 2, 3)
	if a.Add(b) != rsrc(11, 22, 33) || a.Sub(b) != rsrc(9, 18, 27) {
		t.Fatal("arithmetic broken")
	}
	if !b.Fits(a) || a.Fits(b) {
		t.Fatal("fits broken")
	}
	// Fits must check every axis independently.
	if rsrc(1, 100, 1).Fits(a) {
		t.Fatal("memory overshoot admitted")
	}
}

func TestEEAdmissionControl(t *testing.T) {
	n := New(rsrc(100, 100, 100), 0)
	if _, err := n.RegisterEE("ee1", rsrc(60, 60, 60), 1000); err != nil {
		t.Fatal(err)
	}
	// Second EE exceeding the remaining envelope is refused.
	if _, err := n.RegisterEE("ee2", rsrc(60, 10, 10), 1000); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v", err)
	}
	if _, err := n.RegisterEE("ee2", rsrc(40, 40, 40), 1000); err != nil {
		t.Fatal(err)
	}
	// Duplicate name refused.
	if _, err := n.RegisterEE("ee1", rsrc(1, 1, 1), 1); !errors.Is(err, ErrDupEE) {
		t.Fatalf("err = %v", err)
	}
	if n.Free() != rsrc(0, 0, 0) {
		t.Fatalf("free = %+v", n.Free())
	}
}

func TestEERemoveReleasesQuota(t *testing.T) {
	n := New(rsrc(10, 10, 10), 0)
	n.RegisterEE("a", rsrc(10, 10, 10), 1)
	if err := n.RemoveEE("a"); err != nil {
		t.Fatal(err)
	}
	if n.used != rsrc(0, 0, 0) {
		t.Fatalf("used = %+v", n.used)
	}
	if err := n.RemoveEE("a"); !errors.Is(err, errNoEE) {
		t.Fatalf("double remove: %v", err)
	}
	if _, err := n.RegisterEE("b", rsrc(10, 10, 10), 1); err != nil {
		t.Fatal("released quota not reusable")
	}
}

func TestEEOrderStable(t *testing.T) {
	n := New(rsrc(100, 100, 100), 0)
	for _, name := range []string{"z", "a", "m"} {
		n.RegisterEE(name, rsrc(1, 1, 1), 1)
	}
	got := n.EEs()
	if got[0] != "z" || got[1] != "a" || got[2] != "m" {
		t.Fatalf("order = %v", got)
	}
	n.RemoveEE("a")
	got = n.EEs()
	if len(got) != 2 || got[0] != "z" || got[1] != "m" {
		t.Fatalf("order after remove = %v", got)
	}
}

func TestEEExecuteAccounting(t *testing.T) {
	n := New(rsrc(100, 100, 100), 0)
	ee, _ := n.RegisterEE("main", rsrc(1, 1, 1), 1000)
	p := vm.MustAssemble("LOAD 0\nPUSH 2\nMUL\nHALT")
	res, _, err := ee.Execute(p, map[int]int64{0: 21})
	if err != nil || res != 42 {
		t.Fatalf("result = %d, %v", res, err)
	}
	if ee.Executed != 1 || ee.Failed != 0 || ee.GasUsed == 0 {
		t.Fatalf("accounting: %+v", ee)
	}
	// A failing capsule increments Failed and still bills gas.
	gasBefore := ee.GasUsed
	if _, _, err := ee.Execute(vm.MustAssemble("loop: JMP loop"), nil); err == nil {
		t.Fatal("infinite capsule succeeded")
	}
	if ee.Failed != 1 || ee.GasUsed <= gasBefore {
		t.Fatalf("failure accounting: %+v", ee)
	}
}

func TestEEHostBindings(t *testing.T) {
	n := New(rsrc(1, 1, 1), 0)
	ee, _ := n.RegisterEE("e", rsrc(1, 1, 1), 1000)
	ee.Bind(7, func(m *vm.Machine) error { return m.PushResult(123) })
	ee.Bind(3, func(m *vm.Machine) error { return m.PushResult(1) })
	ee.Bind(7, func(m *vm.Machine) error { return m.PushResult(456) }) // rebind
	ids := ee.HostIDs()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 7 {
		t.Fatalf("host ids = %v", ids)
	}
	res, _, err := ee.Execute(vm.MustAssemble("HOST 7\nHALT"), nil)
	if err != nil || res != 456 {
		t.Fatalf("rebind not effective: %d, %v", res, err)
	}
}

func TestCodeStoreDemandAccounting(t *testing.T) {
	s := NewCodeStore(0)
	if _, ok := s.Get("f"); ok {
		t.Fatal("empty store hit")
	}
	s.Put("f", vm.MustAssemble("HALT"))
	if _, ok := s.Get("f"); !ok {
		t.Fatal("stored program missing")
	}
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", s.Hits, s.Misses)
	}
	if !s.Has("f") || s.Has("g") {
		t.Fatal("Has broken")
	}
}

func TestCodeStoreLRU(t *testing.T) {
	s := NewCodeStore(2)
	halt := vm.MustAssemble("HALT")
	s.Put("a", halt)
	s.Put("b", halt)
	s.Get("a") // a most recent
	s.Put("c", halt)
	if s.Has("b") {
		t.Fatal("LRU victim should be b")
	}
	if !s.Has("a") || !s.Has("c") {
		t.Fatal("wrong eviction")
	}
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d", s.Evictions)
	}
}

func TestCodeStoreIDsSorted(t *testing.T) {
	s := NewCodeStore(0)
	halt := vm.MustAssemble("HALT")
	for _, id := range []string{"z", "a", "m"} {
		s.Put(id, halt)
	}
	ids := s.IDs()
	if len(ids) != 3 || ids[0] != "a" || ids[2] != "z" {
		t.Fatalf("ids = %v", ids)
	}
	if len(s.progs) != 3 {
		t.Fatalf("len = %d", len(s.progs))
	}
}

func TestAdmissionNeverOversubscribes(t *testing.T) {
	if err := quick.Check(func(quotas []uint8) bool {
		n := New(rsrc(100, 100, 100), 0)
		for i, q := range quotas {
			r := float64(q % 50)
			n.RegisterEE(string(rune('a'+i%26))+string(rune('0'+i/26%10)), rsrc(r, r, r), 1)
		}
		return n.used.Fits(n.total)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
