// Package ployon implements the paper's central abstraction: the ployon,
// "the active [mobile] network component abstraction in its two
// manifestations, ships (active mobile nodes) and shuttles (active
// gene-coded packets)", together with the structure descriptors and the
// congruence metric behind the Dualistic Congruence Principle (DCP).
//
// A Shape describes an interface structure (framing, encoding, security,
// QoS expectations) as a feature vector; Congruence measures how well two
// shapes match; MorphToward is the adaptation step both shuttles (a
// priori, while approaching a ship) and ships (a posteriori, after
// processing shuttles) use to converge on each other — the DCP's mutual
// reflection.
package ployon

import (
	"fmt"
	"math"
)

// ShapeDims is the number of structural feature dimensions. The chosen
// axes are the interface aspects the paper names: framing, encoding,
// security scheme, QoS class, addressing mode, and media profile.
const ShapeDims = 6

// Named indexes into a Shape.
const (
	DimFraming = iota
	DimEncoding
	DimSecurity
	DimQoS
	DimAddressing
	DimMedia
)

// Shape is a structure descriptor with features normalized to [0,1].
type Shape [ShapeDims]float64

// Congruence returns the structural match between two shapes in [0,1]:
// 1 − (mean absolute feature distance). Identical shapes score 1.
func Congruence(a, b Shape) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return 1 - d/ShapeDims
}

// MorphToward moves s a fraction rate of the way toward target and
// returns the result; rate 1 is full adaptation. The caller pays the
// morphing cost (see MorphCost).
func (s Shape) MorphToward(target Shape, rate float64) Shape {
	if rate < 0 {
		rate = 0
	}
	if rate >= 1 {
		return target
	}
	var out Shape
	for i := range s {
		out[i] = s[i] + (target[i]-s[i])*rate
	}
	return out
}

// MorphCost returns the byte overhead of morphing between two shapes:
// proportional to the structural distance being bridged. A full
// re-framing is expensive; a near-match is almost free.
func MorphCost(from, to Shape, baseBytes int) int {
	d := 1 - Congruence(from, to)
	return int(math.Ceil(d * float64(baseBytes)))
}

// Class is a ship class embedded in shuttle destination addresses; the
// paper's morphing operation is "based on the destination address and on
// the class of the ship included in this address".
type Class uint8

// The ship classes used across the experiments, mirroring the generic
// roles server / client / agent from the paper's footnote plus the relay.
const (
	ClassRelay Class = iota
	ClassServer
	ClassClient
	ClassAgent
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassRelay:
		return "relay"
	case ClassServer:
		return "server"
	case ClassClient:
		return "client"
	case ClassAgent:
		return "agent"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// CanonicalShape returns the reference interface shape of a ship class.
// These are fixed, well-separated anchors so classes are distinguishable.
func CanonicalShape(c Class) Shape {
	switch c {
	case ClassRelay:
		return Shape{0.1, 0.1, 0.2, 0.3, 0.1, 0.1}
	case ClassServer:
		return Shape{0.9, 0.8, 0.9, 0.7, 0.8, 0.9}
	case ClassClient:
		return Shape{0.2, 0.7, 0.4, 0.9, 0.3, 0.8}
	case ClassAgent:
		return Shape{0.7, 0.3, 0.8, 0.2, 0.9, 0.4}
	}
	return Shape{}
}

// ID is a network-unique ployon identifier.
type ID uint64

// Ployon is the dual abstraction: an identity, a class and a current
// structural shape. Both Ship and Shuttle embed it.
type Ployon struct {
	ID    ID
	Class Class
	Shape Shape
}
