package kq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Genetic transcoding (Definition 3.5): "network elements can encode and
// decode their state in knowledge quanta". Genome is the transportable
// state of a ship — its class, active roles, knowledge quanta, and
// optionally a driver program — carried in shuttle payloads and used for
// node genesis ("N-geneering").

// Genome is an encoded ship state.
type Genome struct {
	ShipClass uint8
	Roles     []string
	Quanta    []Quantum
	Program   []byte // opaque driver code (vm.Encode output)
}

// ErrGenome reports a malformed genome encoding.
var ErrGenome = errors.New("kq: malformed genome")

const genomeMagic = 0x6E

type encoder struct{ buf []byte }

func (e *encoder) u(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) f(v float64) { e.u(math.Float64bits(v)) }
func (e *encoder) s(v string)  { e.u(uint64(len(v))); e.buf = append(e.buf, v...) }
func (e *encoder) b(v []byte)  { e.u(uint64(len(v))); e.buf = append(e.buf, v...) }

type decoder struct{ buf []byte }

func (d *decoder) u() (uint64, error) {
	v, k := binary.Uvarint(d.buf)
	if k <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrGenome)
	}
	d.buf = d.buf[k:]
	return v, nil
}

func (d *decoder) f() (float64, error) {
	v, err := d.u()
	return math.Float64frombits(v), err
}

func (d *decoder) s(maxLen uint64) (string, error) {
	n, err := d.u()
	if err != nil {
		return "", err
	}
	if n > maxLen || n > uint64(len(d.buf)) {
		return "", fmt.Errorf("%w: string length %d", ErrGenome, n)
	}
	v := string(d.buf[:n])
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) b(maxLen uint64) ([]byte, error) {
	s, err := d.s(maxLen)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

func encodeQuantum(e *encoder, q *Quantum) {
	e.s(q.Function.Name)
	e.u(uint64(len(q.Function.Requires)))
	for _, id := range q.Function.Requires {
		e.s(string(id))
	}
	e.u(uint64(q.Function.MinAlive))
	e.u(uint64(len(q.Facts)))
	for _, fr := range q.Facts {
		e.s(string(fr.ID))
		e.f(fr.Weight)
	}
}

func decodeQuantum(d *decoder) (Quantum, error) {
	var q Quantum
	name, err := d.s(1 << 12)
	if err != nil {
		return q, err
	}
	q.Function.Name = name
	nr, err := d.u()
	if err != nil {
		return q, err
	}
	if nr > 1<<12 {
		return q, fmt.Errorf("%w: %d requirements", ErrGenome, nr)
	}
	for i := uint64(0); i < nr; i++ {
		id, err := d.s(1 << 12)
		if err != nil {
			return q, err
		}
		q.Function.Requires = append(q.Function.Requires, FactID(id))
	}
	ma, err := d.u()
	if err != nil {
		return q, err
	}
	q.Function.MinAlive = int(ma)
	nf, err := d.u()
	if err != nil {
		return q, err
	}
	if nf > 1<<12 {
		return q, fmt.Errorf("%w: %d facts", ErrGenome, nf)
	}
	for i := uint64(0); i < nf; i++ {
		id, err := d.s(1 << 12)
		if err != nil {
			return q, err
		}
		w, err := d.f()
		if err != nil {
			return q, err
		}
		if w < 0 || math.IsNaN(w) {
			return q, fmt.Errorf("%w: fact weight %v", ErrGenome, w)
		}
		q.Facts = append(q.Facts, FactRecord{ID: FactID(id), Weight: w})
	}
	return q, nil
}

// Encode serializes the genome.
func (g *Genome) Encode() []byte {
	e := &encoder{buf: []byte{genomeMagic, g.ShipClass}}
	e.u(uint64(len(g.Roles)))
	for _, r := range g.Roles {
		e.s(r)
	}
	e.u(uint64(len(g.Quanta)))
	for i := range g.Quanta {
		encodeQuantum(e, &g.Quanta[i])
	}
	e.b(g.Program)
	return e.buf
}

// DecodeGenome parses an encoded genome.
func DecodeGenome(b []byte) (*Genome, error) {
	if len(b) < 2 || b[0] != genomeMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrGenome)
	}
	g := &Genome{ShipClass: b[1]}
	d := &decoder{buf: b[2:]}
	nr, err := d.u()
	if err != nil {
		return nil, err
	}
	if nr > 1<<10 {
		return nil, fmt.Errorf("%w: %d roles", ErrGenome, nr)
	}
	for i := uint64(0); i < nr; i++ {
		r, err := d.s(1 << 10)
		if err != nil {
			return nil, err
		}
		g.Roles = append(g.Roles, r)
	}
	nq, err := d.u()
	if err != nil {
		return nil, err
	}
	if nq > 1<<12 {
		return nil, fmt.Errorf("%w: %d quanta", ErrGenome, nq)
	}
	for i := uint64(0); i < nq; i++ {
		q, err := decodeQuantum(d)
		if err != nil {
			return nil, err
		}
		g.Quanta = append(g.Quanta, q)
	}
	if g.Program, err = d.b(1 << 20); err != nil {
		return nil, err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrGenome)
	}
	if len(g.Program) == 0 {
		g.Program = nil
	}
	return g, nil
}
