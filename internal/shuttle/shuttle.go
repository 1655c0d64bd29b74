// Package shuttle implements the active packets of the Wandering Network:
// "shuttles carry code and data for the upgrade/degrade and
// re-configuration of ships [and] can carry genetic information about the
// ships' architecture and their communication patterns."
//
// Shuttles are ployons (they have a structural shape and can morph to
// match a destination ship's interface — the DCP), carry WanderScript
// code, knowledge quanta and genomes, and a special class of shuttles,
// jets, "are allowed to replicate themselves and to create/remove/modify
// other capsules and resources in the network."
package shuttle

import (
	"errors"
	"fmt"

	"viator/internal/ployon"
)

// Kind classifies a shuttle's payload role.
type Kind uint8

// Shuttle kinds.
const (
	Data  Kind = iota // ordinary content
	Code              // carries a program for installation (code distribution)
	Gene              // carries a genome (genetic transcoding / node genesis)
	Jet               // self-replicating management capsule
	Probe             // measurement/feedback capsule
	NumKinds
)

var kindNames = [NumKinds]string{"data", "code", "gene", "jet", "probe"}

// String names the kind.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// HeaderBytes is the fixed wire overhead of every shuttle.
const HeaderBytes = 32

// MaxJetGeneration bounds jet replication depth: an unbounded jet would
// be a packet storm. Jets carry their generation and refuse to replicate
// past the bound.
const MaxJetGeneration = 6

// Shuttle is one active packet.
type Shuttle struct {
	ployon.Ployon
	Kind     Kind
	Src, Dst int32        // ship node ids
	DstClass ployon.Class // class embedded in the destination address

	CodeID string // identifier for demand code distribution
	Code   []byte // encoded WanderScript (vm.Encode)
	Genome []byte // encoded kq.Genome
	Data   []byte // opaque content

	TTL        uint8
	Generation uint8 // jet replication generation (0 = original)
	MorphCount int   // times this shuttle morphed in flight
}

// Shuttle errors.
var (
	ErrNotJet    = errors.New("shuttle: only jets replicate")
	ErrExhausted = errors.New("shuttle: jet generation bound reached")
)

// New builds a data shuttle from src to dst with the canonical shape of
// the sender's class.
func New(id ployon.ID, kind Kind, src, dst int32, class ployon.Class) *Shuttle {
	return &Shuttle{
		Ployon: ployon.Ployon{ID: id, Class: class, Shape: ployon.CanonicalShape(class)},
		Kind:   kind, Src: src, Dst: dst, DstClass: class, TTL: 64,
	}
}

// WireSize returns the shuttle's on-the-wire size in bytes: fixed header
// plus payloads. Experiments use it for honest bandwidth accounting.
func (s *Shuttle) WireSize() int {
	return HeaderBytes + len(s.CodeID) + len(s.Code) + len(s.Genome) + len(s.Data)
}

// Morph adapts the shuttle's shape toward target at the given rate —
// "a shuttle approaching a ship can re-configure itself becoming a
// morphing packet to provide the desired interface and match a ship's
// requirements". It returns the byte cost added to the shuttle for the
// adaptation layer.
func (s *Shuttle) Morph(target ployon.Shape, rate float64) int {
	cost := ployon.MorphCost(s.Shape, target, HeaderBytes)
	s.Shape = s.Shape.MorphToward(target, rate)
	s.MorphCount++
	return cost
}

// Replicate clones a jet, incrementing the generation. Only jets may
// replicate, and only below MaxJetGeneration.
func (s *Shuttle) Replicate(newID ployon.ID) (*Shuttle, error) {
	if s.Kind != Jet {
		return nil, ErrNotJet
	}
	if s.Generation >= MaxJetGeneration {
		return nil, ErrExhausted
	}
	cp := *s
	cp.ID = newID
	cp.Generation = s.Generation + 1
	cp.Code = append([]byte(nil), s.Code...)
	cp.Genome = append([]byte(nil), s.Genome...)
	cp.Data = append([]byte(nil), s.Data...)
	return &cp, nil
}
