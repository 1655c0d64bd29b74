package ship

import (
	"fmt"

	"viator/internal/kq"
	"viator/internal/nodeos"
	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/shuttle"
	"viator/internal/vm"
)

// DockResult reports what happened when a shuttle docked.
type DockResult struct {
	Accepted bool
	// Congruence is the measured ship-shuttle interface match.
	Congruence float64
	// Latency is the simulated processing time at the dock.
	Latency float64
	// Result is the capsule program's return value, if code ran.
	Result int64
	// Replicas holds new shuttles created by a jet during execution.
	Replicas []*shuttle.Shuttle
	// InstalledCode is the code id stored into the code store, if any.
	InstalledCode string
	// Description is the ship's self-description, for probe shuttles.
	Description *kq.Genome
	// Reconfigured reports that a genome changed the ship's configuration.
	Reconfigured bool
}

// Dock receives a shuttle at time now. The shuttle must pass the DCP
// congruence test; accepted shuttles are dispatched by kind and the ship
// adapts its own shape a posteriori toward the traffic it serves.
func (s *Ship) Dock(sh *shuttle.Shuttle, now float64) (*DockResult, error) {
	if s.state != Alive {
		return nil, ErrNotBorn
	}
	res := &DockResult{Congruence: ployon.Congruence(s.Shape, sh.Shape), Latency: dockBaseLatency}
	if res.Congruence < s.cfg.CongruenceThreshold {
		s.RejectedDock++
		return res, fmt.Errorf("%w: %.3f < %.3f", ErrIncongruent, res.Congruence, s.cfg.CongruenceThreshold)
	}
	res.Accepted = true
	s.Docked++
	// DCP a posteriori adaptation: the ship reflects the shuttle's
	// structure at the previous step.
	s.Shape = s.Shape.MorphToward(sh.Shape, s.cfg.AdaptRate)

	// A data shuttle ends here: the congruence check and the adaptation
	// above are all it does to the ship.
	switch sh.Kind {
	case shuttle.Code:
		if err := s.installCode(sh, res); err != nil {
			return res, err
		}
	case shuttle.Gene:
		if err := s.applyGenome(sh, now, res); err != nil {
			return res, err
		}
	case shuttle.Jet:
		if err := s.runJet(sh, now, res); err != nil {
			return res, err
		}
	case shuttle.Probe:
		res.Description = s.Describe()
	}
	return res, nil
}

// installCode stores the carried program (code distribution) and runs it
// once in the modal EE if it is executable.
func (s *Ship) installCode(sh *shuttle.Shuttle, res *DockResult) error {
	if sh.CodeID == "" || len(sh.Code) == 0 {
		return fmt.Errorf("ship: code shuttle without code")
	}
	prog, err := vm.Decode(sh.Code)
	if err != nil {
		return fmt.Errorf("ship: bad shuttle code: %w", err)
	}
	s.OS.Store.Put(sh.CodeID, prog)
	res.InstalledCode = sh.CodeID
	res.Latency += codeInstallLatency
	return nil
}

// applyGenome performs node genesis: the genome reconfigures the ship's
// roles, knowledge base and installed code — "encoding and embedding the
// structural information about a mobile node into the executable part of
// the active packets".
func (s *Ship) applyGenome(sh *shuttle.Shuttle, now float64, res *DockResult) error {
	if s.cfg.Generation < 4 {
		return fmt.Errorf("%w: genomes need generation 4", ErrGeneration)
	}
	g, err := kq.DecodeGenome(sh.Genome)
	if err != nil {
		return fmt.Errorf("ship: bad genome: %w", err)
	}
	// Quanta first: facts arrive regardless of structural applicability.
	for i := range g.Quanta {
		g.Quanta[i].Absorb(s.KB, now)
	}
	// Roles: first listed becomes modal, the rest install as auxiliaries.
	for i, name := range g.Roles {
		k, ok := roles.KindByName(name)
		if !ok {
			return fmt.Errorf("ship: genome names unknown role %q", name)
		}
		if i == 0 {
			lat, err := s.SetModalRole(k)
			if err != nil {
				return err
			}
			res.Latency += lat
		} else if err := s.InstallAux(k); err != nil {
			return err
		}
	}
	// Driver code installs under a genome-derived id.
	if len(g.Program) > 0 {
		prog, err := vm.Decode(g.Program)
		if err != nil {
			return fmt.Errorf("ship: bad genome program: %w", err)
		}
		id := fmt.Sprintf("genome:%d", sh.ID)
		s.OS.Store.Put(id, prog)
		res.InstalledCode = id
	}
	res.Reconfigured = true
	return nil
}

// runJet executes a jet's program with the full host interface, allowing
// it to replicate and to modify the ship.
func (s *Ship) runJet(sh *shuttle.Shuttle, now float64, res *DockResult) error {
	if s.cfg.Generation < 4 {
		return fmt.Errorf("%w: jets need generation 4", ErrGeneration)
	}
	if len(sh.Code) == 0 {
		return fmt.Errorf("ship: jet without code")
	}
	prog, err := vm.Decode(sh.Code)
	if err != nil {
		return fmt.Errorf("ship: bad jet code: %w", err)
	}
	ee, ok := s.OS.EE("modal")
	if !ok {
		return fmt.Errorf("ship: modal EE missing")
	}
	jc := &jetContext{ship: s, jet: sh, now: now}
	s.bindHosts(ee, jc)
	result, _, err := ee.Execute(prog, map[int]int64{0: int64(s.ID), 1: int64(s.modal)})
	// Rebind without jet context so stray HostReplicate calls from
	// non-jet code fail cleanly afterwards.
	s.bindHosts(ee, nil)
	if err != nil {
		s.ExecFailed++
		return fmt.Errorf("ship: jet execution: %w", err)
	}
	s.Executed++
	res.Result = result
	res.Replicas = jc.replicas
	res.Latency += float64(len(prog)) * 1e-6
	return nil
}

// jetContext carries per-execution state for jet host calls.
type jetContext struct {
	ship     *Ship
	jet      *shuttle.Shuttle
	now      float64
	replicas []*shuttle.Shuttle
}

// bindHosts installs the ship host interface into an EE. jc may be nil
// (non-jet execution), in which case HostReplicate reports failure.
func (s *Ship) bindHosts(ee *nodeos.EE, jc *jetContext) {
	ee.Bind(HostGetRole, func(m *vm.Machine) error {
		return m.PushResult(int64(s.modal))
	})
	ee.Bind(HostSetRole, func(m *vm.Machine) error {
		v, err := m.PopArg()
		if err != nil {
			return err
		}
		if v < 0 || v >= int64(roles.NumKinds) {
			return m.PushResult(0)
		}
		if _, err := s.SetModalRole(roles.Kind(v)); err != nil {
			return m.PushResult(0)
		}
		return m.PushResult(1)
	})
	ee.Bind(HostEmitFact, func(m *vm.Machine) error {
		w, err := m.PopArg()
		if err != nil {
			return err
		}
		f, err := m.PopArg()
		if err != nil {
			return err
		}
		if w < 0 {
			w = 0
		}
		now := 0.0
		if jc != nil {
			now = jc.now
		}
		s.KB.Observe(kq.FactID(fmt.Sprintf("fact:%d", f)), float64(w), now)
		return nil
	})
	ee.Bind(HostGetClass, func(m *vm.Machine) error {
		return m.PushResult(int64(s.Class))
	})
	ee.Bind(HostSetNext, func(m *vm.Machine) error {
		v, err := m.PopArg()
		if err != nil {
			return err
		}
		if v >= 0 && v < int64(roles.NumKinds) {
			s.next.Set(roles.Kind(v))
		}
		return nil
	})
	ee.Bind(HostFactAlive, func(m *vm.Machine) error {
		f, err := m.PopArg()
		if err != nil {
			return err
		}
		now := 0.0
		if jc != nil {
			now = jc.now
		}
		if s.KB.Alive(kq.FactID(fmt.Sprintf("fact:%d", f)), now) {
			return m.PushResult(1)
		}
		return m.PushResult(0)
	})
	ee.Bind(HostReplicate, func(m *vm.Machine) error {
		count, err := m.PopArg()
		if err != nil {
			return err
		}
		if jc == nil {
			return m.PushResult(0)
		}
		granted := int64(0)
		for i := int64(0); i < count && i < 8; i++ {
			rep, err := jc.jet.Replicate(s.allocID())
			if err != nil {
				break
			}
			jc.replicas = append(jc.replicas, rep)
			granted++
		}
		return m.PushResult(granted)
	})
}

// allocID hands out ship-locally-unique ployon IDs for created shuttles.
func (s *Ship) allocID() ployon.ID {
	s.nextID++
	return s.nextID
}

// Describe emits the ship's self-description as a genome: "each ship
// knows best its own architecture and function, as well as how and when
// to display it to the external world." An unfair ship corrupts the
// description — the defection the SRP exclusion mechanism punishes.
func (s *Ship) Describe() *kq.Genome {
	g := &kq.Genome{ShipClass: uint8(s.Class)}
	// DisplayedModalRole is the defection point: a fair ship displays its
	// real modal role, an unfair one misreports (and the cluster layer's
	// gossip probes read DisplayedModalRole directly, without paying for
	// this genome).
	g.Roles = append(g.Roles, s.DisplayedModalRole().String())
	for _, k := range s.auxOrder {
		g.Roles = append(g.Roles, k.String())
	}
	return g
}

// EmitGenome encodes the ship's transportable state — its displayed
// roles and one quantum of its alive facts — genetic transcoding for node
// genesis at a remote ship.
func (s *Ship) EmitGenome(now float64) (*kq.Genome, error) {
	if s.cfg.Generation < 4 {
		return nil, fmt.Errorf("%w: genome emission needs generation 4", ErrGeneration)
	}
	g := s.Describe()
	// Carry the alive facts as a single quantum describing this ship's
	// current working set.
	var q kq.Quantum
	q.Function = kq.NetFunction{Name: s.modal.String()}
	for _, id := range s.KB.Facts(now) {
		q.Function.Requires = append(q.Function.Requires, id)
		q.Facts = append(q.Facts, kq.FactRecord{ID: id, Weight: s.KB.Activation(id, now)})
	}
	if len(q.Facts) > 0 {
		g.Quanta = append(g.Quanta, q)
	}
	return g, nil
}
