package shuttle

import (
	"encoding/binary"
	"errors"
	"fmt"

	"viator/internal/ployon"
)

// errWire reports a malformed wire encoding.
var errWire = errors.New("shuttle: malformed wire encoding")

// MorphForClass morphs toward the canonical shape of the destination
// class — the paper's "based on the destination address and on the class
// of the ship included in this address" operation.
func (s *Shuttle) MorphForClass(rate float64) int {
	return s.Morph(ployon.CanonicalShape(s.DstClass), rate)
}

const wireMagic = 0x5A

// Encode serializes the shuttle for transport.
func (s *Shuttle) Encode() []byte {
	b := []byte{wireMagic, byte(s.Kind), byte(s.Class), byte(s.DstClass), s.TTL, s.Generation}
	b = binary.AppendUvarint(b, uint64(s.ID))
	b = binary.AppendVarint(b, int64(s.Src))
	b = binary.AppendVarint(b, int64(s.Dst))
	for _, f := range s.Shape {
		// Shape features quantize to 16 bits; enough for congruence tests.
		b = binary.AppendUvarint(b, uint64(f*65535))
	}
	app := func(p []byte) {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	app([]byte(s.CodeID))
	app(s.Code)
	app(s.Genome)
	app(s.Data)
	return b
}

// Decode parses an encoded shuttle.
func Decode(b []byte) (*Shuttle, error) {
	if len(b) < 6 || b[0] != wireMagic {
		return nil, fmt.Errorf("%w: bad magic", errWire)
	}
	s := &Shuttle{Kind: Kind(b[1]), TTL: b[4], Generation: b[5]}
	if s.Kind >= NumKinds {
		return nil, fmt.Errorf("%w: kind %d", errWire, s.Kind)
	}
	s.Class = ployon.Class(b[2])
	s.DstClass = ployon.Class(b[3])
	b = b[6:]
	u := func() (uint64, error) {
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return 0, fmt.Errorf("%w: truncated", errWire)
		}
		b = b[k:]
		return v, nil
	}
	i := func() (int64, error) {
		v, k := binary.Varint(b)
		if k <= 0 {
			return 0, fmt.Errorf("%w: truncated", errWire)
		}
		b = b[k:]
		return v, nil
	}
	id, err := u()
	if err != nil {
		return nil, err
	}
	s.ID = ployon.ID(id)
	src, err := i()
	if err != nil {
		return nil, err
	}
	dst, err := i()
	if err != nil {
		return nil, err
	}
	s.Src, s.Dst = int32(src), int32(dst)
	for d := 0; d < ployon.ShapeDims; d++ {
		q, err := u()
		if err != nil {
			return nil, err
		}
		if q > 65535 {
			return nil, fmt.Errorf("%w: shape feature overflow", errWire)
		}
		s.Shape[d] = float64(q) / 65535
	}
	blob := func(max uint64) ([]byte, error) {
		n, err := u()
		if err != nil {
			return nil, err
		}
		if n > max || n > uint64(len(b)) {
			return nil, fmt.Errorf("%w: blob length %d", errWire, n)
		}
		out := append([]byte(nil), b[:n]...)
		b = b[n:]
		if len(out) == 0 {
			return nil, nil
		}
		return out, nil
	}
	idb, err := blob(1 << 10)
	if err != nil {
		return nil, err
	}
	s.CodeID = string(idb)
	if s.Code, err = blob(1 << 20); err != nil {
		return nil, err
	}
	if s.Genome, err = blob(1 << 20); err != nil {
		return nil, err
	}
	if s.Data, err = blob(1 << 24); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", errWire)
	}
	return s, nil
}
