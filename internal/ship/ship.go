// Package ship implements the active mobile nodes of the Wandering
// Network. A ship is a ployon with a lifecycle (born, live, die), a
// NodeOS with execution environments, an optional reconfigurable hardware
// fabric, a knowledge base of facts, a modal role (exactly one resident
// function at a time, per section D) plus installable auxiliary roles,
// and a dock where shuttles arrive, are congruence-checked (DCP),
// executed, and may reconfigure the ship or replicate (jets).
//
// Ships honour the Self-Reference Principle: Describe() emits the ship's
// own architecture as a genome (genetic transcoding), and unfair ships —
// those that misreport — are detectable and excludable by the cluster
// layer.
package ship

import (
	"errors"
	"fmt"

	"viator/internal/hw"
	"viator/internal/kq"
	"viator/internal/nodeos"
	"viator/internal/ployon"
	"viator/internal/roles"
)

// State is the ship lifecycle: "ships are living entities: they can be
// born, live and die."
type State uint8

// Lifecycle states.
const (
	Born State = iota
	Alive
	Dead
)

// String names the state.
func (s State) String() string {
	switch s {
	case Born:
		return "born"
	case Alive:
		return "alive"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Host-function identifiers bound into every capsule execution. Mobile
// code uses these to observe and modify its host ship.
const (
	HostGetRole   = 1 // ( -- role)
	HostSetRole   = 2 // (role -- ok)
	HostEmitFact  = 3 // (factNum weight -- )
	HostGetClass  = 4 // ( -- class)
	HostSetNext   = 5 // (role -- )
	HostFactAlive = 6 // (factNum -- bool)
	HostReplicate = 7 // (count -- granted), jets only
)

// Config parameterizes a ship.
type Config struct {
	ID    ployon.ID
	Class ployon.Class

	// Generation is the WN generation (1–4); it gates capabilities:
	// ≥2 NodeOS programmability, ≥3 hardware fabric, ≥4 genome emission
	// and jet replication.
	Generation int

	// CongruenceThreshold is the minimum ship-shuttle congruence to dock.
	CongruenceThreshold float64
	// AdaptRate is the a-posteriori morph rate toward docked shuttles.
	AdaptRate float64

	// OS is the node resource envelope.
	OS nodeos.Resources
	// GasLimit bounds each capsule execution.
	GasLimit int64

	// FabricInputs/FabricCells size the hardware fabric (generation ≥ 3).
	FabricInputs int
	FabricCells  int

	// Knowledge base parameters (Definition 3.3).
	FactHalfLife  float64
	FactThreshold float64
	FactCapacity  int

	// Fair marks a cooperative ship; unfair ships corrupt their
	// self-description (SRP exclusion experiments).
	Fair bool
}

// DefaultConfig returns a sane 4G ship configuration.
func DefaultConfig(id ployon.ID, class ployon.Class) Config {
	return Config{
		ID: id, Class: class, Generation: 4,
		CongruenceThreshold: 0.7, AdaptRate: 0.25,
		OS:           nodeos.Resources{CPU: 1e6, Memory: 16 << 20, Bandwidth: 1 << 20},
		GasLimit:     100_000,
		FabricInputs: 8, FabricCells: 64,
		FactHalfLife: 30, FactThreshold: 0.5, FactCapacity: 256,
		Fair: true,
	}
}

// Latency model constants (seconds), mirroring 2002-era magnitudes: a
// software role switch is milliseconds, installing code is dominated by
// the store update, hardware reconfiguration by the bitstream write.
const (
	softRoleSwitchLatency = 2e-3
	codeInstallLatency    = 1e-3
	dockBaseLatency       = 1e-4
)

// Ship is one active mobile node.
type Ship struct {
	ployon.Ployon
	cfg   Config
	state State

	OS     *nodeos.NodeOS
	Fabric *hw.Fabric // nil below generation 3
	KB     *kq.Store

	modal        roles.Kind
	modalProc    roles.Processor
	aux          map[roles.Kind]roles.Processor
	auxOrder     []roles.Kind
	next         roles.NextStepSwitch
	nextID       ployon.ID // allocator for replicas this ship creates
	roleSwitches int

	// Counters the experiments read.
	Docked       uint64
	RejectedDock uint64
	Executed     uint64
	ExecFailed   uint64
}

// Ship errors.
var (
	ErrDead        = errors.New("ship: dead")
	ErrNotBorn     = errors.New("ship: not alive")
	ErrIncongruent = errors.New("ship: shuttle interface incongruent")
	ErrGeneration  = errors.New("ship: capability exceeds ship generation")
)

// New builds a ship in the Born state.
func New(cfg Config) *Ship {
	if cfg.Generation < 1 || cfg.Generation > 4 {
		panic("ship: generation must be 1..4")
	}
	s := &Ship{
		Ployon: ployon.Ployon{ID: cfg.ID, Class: cfg.Class, Shape: ployon.CanonicalShape(cfg.Class)},
		cfg:    cfg,
		state:  Born,
		OS:     nodeos.New(cfg.OS, 128),
		KB:     kq.NewStore(cfg.FactHalfLife, cfg.FactThreshold, cfg.FactCapacity),
		aux:    make(map[roles.Kind]roles.Processor),
		nextID: cfg.ID<<20 + 1,
	}
	if cfg.Generation >= 3 && cfg.FabricCells > 0 {
		s.Fabric = hw.NewFabric(cfg.FabricInputs, cfg.FabricCells)
	}
	s.modal = roles.NextStep // neutral starting role
	s.modalProc = roles.NewProcessor(s.modal)
	// The registry EE for the modal function, per Figure 2.
	ee, err := s.OS.RegisterEE("modal", nodeos.Resources{
		CPU: cfg.OS.CPU / 2, Memory: cfg.OS.Memory / 2, Bandwidth: cfg.OS.Bandwidth / 2,
	}, cfg.GasLimit)
	if err != nil {
		panic("ship: modal EE admission failed: " + err.Error())
	}
	s.bindHosts(ee, nil)
	return s
}

// Birth transitions Born → Alive.
func (s *Ship) Birth() error {
	if s.state == Dead {
		return ErrDead
	}
	s.state = Alive
	return nil
}

// Kill transitions to Dead; a dead ship rejects everything.
func (s *Ship) Kill() { s.state = Dead }

// State returns the lifecycle state.
func (s *Ship) State() State { return s.state }

// Config returns the ship's configuration.
func (s *Ship) Config() Config { return s.cfg }

// Fair reports whether the ship cooperates in self-description.
func (s *Ship) Fair() bool { return s.cfg.Fair }

// ModalRole returns the single currently resident function.
func (s *Ship) ModalRole() roles.Kind { return s.modal }

// DisplayedModalRole returns the modal role this ship displays to the
// community — always the first Roles entry of Describe(), but without
// building a genome, so gossip verification probes stay allocation-free.
// A fair ship displays its real modal role; an unfair ship misreports by
// one kind (the defection the SRP exclusion mechanism punishes).
//
//viator:noalloc
func (s *Ship) DisplayedModalRole() roles.Kind {
	if !s.cfg.Fair {
		return (s.modal + 1) % roles.NumKinds
	}
	return s.modal
}

// SetModalRole switches the ship's single resident function ("each active
// node can be assigned exactly one single function at a time") and
// returns the simulated reconfiguration latency. Generation 1 ships are
// fixed-function and refuse.
func (s *Ship) SetModalRole(k roles.Kind) (float64, error) {
	if s.state == Dead {
		return 0, ErrDead
	}
	if s.cfg.Generation < 2 {
		return 0, fmt.Errorf("%w: role change needs generation 2+", ErrGeneration)
	}
	if k == s.modal {
		return 0, nil
	}
	s.modal = k
	s.modalProc = roles.NewProcessor(k)
	s.roleSwitches++
	latency := softRoleSwitchLatency
	// A 3G+ ship also rewrites its hardware classifier region for the new
	// role: hardware wandering costs bitstream time.
	if s.Fabric != nil {
		bs := roleCircuit(k, s.cfg.FabricInputs)
		if err := bs.ApplyAt(s.Fabric, 0); err == nil {
			latency += hw.ReconfigTime(len(bs.Cells))
		}
	}
	return latency, nil
}

// roleCircuit maps a role to the hardware classifier installed with it.
func roleCircuit(k roles.Kind, numIn int) *hw.Bitstream {
	switch {
	case k == roles.SecurityMgmt:
		return hw.Comparator(numIn, []bool{true, false, true})
	case k == roles.Boosting:
		return hw.Parity(numIn, numIn)
	case k == roles.Fusion || k == roles.Combining:
		return hw.ANDTree(numIn, 3)
	default:
		return hw.ORTree(numIn, 2)
	}
}

// InstallAux installs an auxiliary role ("transported, installed and
// enabled via capsules/shuttles") with its own EE, per Figure 2.
func (s *Ship) InstallAux(k roles.Kind) error {
	if s.state == Dead {
		return ErrDead
	}
	if _, dup := s.aux[k]; dup {
		return nil
	}
	name := "aux:" + k.String()
	free := s.OS.Free()
	quota := nodeos.Resources{CPU: free.CPU / 8, Memory: free.Memory / 8, Bandwidth: free.Bandwidth / 8}
	ee, err := s.OS.RegisterEE(name, quota, s.cfg.GasLimit)
	if err != nil {
		return err
	}
	s.bindHosts(ee, nil)
	s.aux[k] = roles.NewProcessor(k)
	s.auxOrder = append(s.auxOrder, k)
	return nil
}

// NextStep exposes the ship's built-in Next-Step switch ("a standard
// module for each node/ship").
func (s *Ship) NextStep() *roles.NextStepSwitch { return &s.next }
