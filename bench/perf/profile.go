package perf

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A stdlib-only reader for the pprof profile format (profile.proto) as
// runtime/pprof writes it, and the map from a profile's leaf frames to the
// repository's layers. The module has no dependencies and builds offline,
// so the pprof library itself is not available; the benchmark needs only
// the sample, location, line, function and string tables.

// Profile is a decoded CPU profile.
type Profile struct {
	SampleTypes []ValueType
	Samples     []Sample
}

// ValueType names one sample value column, e.g. {"cpu", "nanoseconds"}.
type ValueType struct {
	Type, Unit string
}

// Sample is one stack with its values. Locations[0] is the leaf.
type Sample struct {
	Locations []*Location
	Values    []int64
}

// Location is one program counter. When functions were inlined at it,
// Lines holds one entry per function, innermost (the leaf) first and the
// caller they were inlined into last.
type Location struct {
	ID    uint64
	Lines []Line
}

// Line is one function and source line at a location.
type Line struct {
	Function *Function
	Line     int64
}

// Function is one symbol.
type Function struct {
	ID       uint64
	Name     string
	Filename string
}

// ParseProfile decodes a profile, gunzipping it first when it is
// compressed (runtime/pprof always compresses).
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	return decodeProfile(data)
}

// Field numbers from profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	vtType = 1
	vtUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	locID   = 1
	locLine = 4

	lineFunctionID = 1
	lineLine       = 2

	fnID       = 1
	fnName     = 2
	fnFilename = 4
)

// Raw decoded records: string fields are string-table indices, references
// are IDs, both resolved once the whole message has been read (the string
// table comes last in runtime/pprof output).
type (
	rawValueType struct{ typ, unit int64 }
	rawSample    struct {
		locs []uint64
		vals []int64
	}
	rawLine struct {
		fn   uint64
		line int64
	}
	rawLocation struct {
		id    uint64
		lines []rawLine
	}
	rawFunction struct {
		id             uint64
		name, filename int64
	}
)

func decodeProfile(data []byte) (*Profile, error) {
	var (
		types   []rawValueType
		samples []rawSample
		locs    []rawLocation
		fns     []rawFunction
		strs    []string
		p       Profile
	)
	err := eachField(data, func(num int, f field) error {
		switch num {
		case profSampleType:
			var vt rawValueType
			err := eachField(f.bytes, func(num int, f field) error {
				switch num {
				case vtType:
					vt.typ = int64(f.varint)
				case vtUnit:
					vt.unit = int64(f.varint)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case profSample:
			var s rawSample
			err := eachField(f.bytes, func(num int, f field) error {
				switch num {
				case sampleLocationID:
					return f.uints(func(v uint64) { s.locs = append(s.locs, v) })
				case sampleValue:
					return f.uints(func(v uint64) { s.vals = append(s.vals, int64(v)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var l rawLocation
			err := eachField(f.bytes, func(num int, f field) error {
				switch num {
				case locID:
					l.id = f.varint
				case locLine:
					var ln rawLine
					err := eachField(f.bytes, func(num int, f field) error {
						switch num {
						case lineFunctionID:
							ln.fn = f.varint
						case lineLine:
							ln.line = int64(f.varint)
						}
						return nil
					})
					l.lines = append(l.lines, ln)
					return err
				}
				return nil
			})
			locs = append(locs, l)
			return err
		case profFunction:
			var fn rawFunction
			err := eachField(f.bytes, func(num int, f field) error {
				switch num {
				case fnID:
					fn.id = f.varint
				case fnName:
					fn.name = int64(f.varint)
				case fnFilename:
					fn.filename = int64(f.varint)
				}
				return nil
			})
			fns = append(fns, fn)
			return err
		case profStringTable:
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	for _, vt := range types {
		t, err := str(vt.typ)
		if err != nil {
			return nil, err
		}
		u, err := str(vt.unit)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: t, Unit: u})
	}
	fnByID := make(map[uint64]*Function, len(fns))
	for _, rf := range fns {
		name, err := str(rf.name)
		if err != nil {
			return nil, err
		}
		file, err := str(rf.filename)
		if err != nil {
			return nil, err
		}
		fnByID[rf.id] = &Function{ID: rf.id, Name: name, Filename: file}
	}
	locByID := make(map[uint64]*Location, len(locs))
	for _, rl := range locs {
		l := &Location{ID: rl.id}
		for _, ln := range rl.lines {
			fn, ok := fnByID[ln.fn]
			if !ok {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", rl.id, ln.fn)
			}
			l.Lines = append(l.Lines, Line{Function: fn, Line: ln.line})
		}
		locByID[rl.id] = l
	}
	for _, rs := range samples {
		s := Sample{Values: rs.vals}
		for _, id := range rs.locs {
			l, ok := locByID[id]
			if !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", id)
			}
			s.Locations = append(s.Locations, l)
		}
		p.Samples = append(p.Samples, s)
	}
	return &p, nil
}

// field is one decoded protobuf field: varint and fixed-width values land
// in varint, length-delimited payloads in bytes.
type field struct {
	wire   int
	varint uint64
	bytes  []byte
}

// uints yields the field's unsigned values, accepting both the packed
// (length-delimited) and the one-value-per-field encodings of a repeated
// scalar — runtime/pprof writes short lists unpacked.
func (f field) uints(yield func(uint64)) error {
	if f.wire != wireBytes {
		yield(f.varint)
		return nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// eachField walks the fields of one protobuf message.
func eachField(b []byte, fn func(num int, f field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.varint, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			for i := 7; i >= 0; i-- {
				f.varint = f.varint<<8 | uint64(b[i])
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			for i := 3; i >= 0; i-- {
				f.varint = f.varint<<8 | uint64(b[i])
			}
			b = b[4:]
		case wireBytes:
			size, n := uvarint(b)
			if n <= 0 || size > uint64(len(b)-n) {
				return errors.New("profile: bad length-delimited field")
			}
			f.bytes = b[n : n+int(size)]
			b = b[n+int(size):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := fn(int(key>>3), f); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes one base-128 varint, returning the byte count consumed
// (0 on truncation, negative on overflow).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// Layers are the repository's layers, named after its modules, in report
// order. Every profile sample is attributed to exactly one of them.
var Layers = []string{
	"topo", "routing", "sim", "netsim", "mobility",
	"principles", "components", "mc", "telemetry", "serve",
	"scenario", "harness", "viator", "runtime", "stdlib", "bench",
}

// internalLayer maps viator/internal/<pkg> to its layer.
var internalLayer = map[string]string{
	"topo": "topo", "routing": "routing", "sim": "sim", "netsim": "netsim", "mobility": "mobility",
	"cluster": "principles", "resonance": "principles", "feedback": "principles",
	"metamorph": "principles", "roles": "principles", "kq": "principles",
	"ship": "components", "shuttle": "components", "ployon": "components",
	"nodeos": "components", "vm": "components", "hw": "components",
	"mc": "mc", "spec": "mc",
	"telemetry": "telemetry", "trace": "telemetry", "stats": "telemetry",
	"serve":    "serve",
	"scenario": "scenario", "workload": "scenario",
	"baseline": "harness",
}

// rootFileLayer routes frames of the root viator package by source file.
var rootFileLayer = map[string]string{
	"scenario.go": "scenario", "shardrun.go": "scenario", "live.go": "scenario",
	"registry.go": "harness", "replicate.go": "harness",
	"network.go": "viator", "mobility.go": "viator", "selfhealing.go": "viator", "telemetry.go": "viator",
}

// packageOf returns the import path of the package defining the function
// a profile names, e.g. "viator/internal/mc" for
// "viator/internal/mc.LeadsTo[go.shape.int]".
func packageOf(fn string) string {
	// Generic instantiations carry type arguments (which contain their own
	// slashes and dots) in brackets; a package path never contains '['.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// LayerOf attributes one frame, given its function name and source file,
// to a layer.
func LayerOf(fn, file string) string {
	if fn == "" || strings.HasPrefix(fn, "type:") {
		// Compiler-generated helpers (type equality, hashing) and frames
		// without a symbol run runtime code.
		return "runtime"
	}
	pkg := packageOf(fn)
	switch {
	case pkg == "viator":
		base := path.Base(file)
		if l, ok := rootFileLayer[base]; ok {
			return l
		}
		if strings.HasPrefix(base, "experiment_") {
			return "harness"
		}
		return "viator"
	case strings.HasPrefix(pkg, "viator/internal/"):
		name := strings.TrimPrefix(pkg, "viator/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if l, ok := internalLayer[name]; ok {
			return l
		}
		return "viator"
	case pkg == "main" || pkg == "viator/bench" || strings.HasPrefix(pkg, "viator/bench/"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "stdlib"
}

// SelfByLayer sums each layer's self value — the sample value of the
// column named valueType (e.g. "cpu"), charged to the innermost function
// at the sample's leaf location — and the total over all samples.
func (p *Profile) SelfByLayer(valueType string) (map[string]int64, int64, error) {
	col := -1
	for i, vt := range p.SampleTypes {
		if vt.Type == valueType {
			col = i
		}
	}
	if col < 0 {
		return nil, 0, fmt.Errorf("profile: no %q sample values", valueType)
	}
	out := make(map[string]int64, len(Layers))
	var total int64
	for _, s := range p.Samples {
		if col >= len(s.Values) {
			return nil, 0, errors.New("profile: sample with too few values")
		}
		v := s.Values[col]
		layer := "runtime"
		if len(s.Locations) > 0 && len(s.Locations[0].Lines) > 0 {
			leaf := s.Locations[0].Lines[0].Function
			layer = LayerOf(leaf.Name, leaf.Filename)
		}
		out[layer] += v
		total += v
	}
	return out, total, nil
}
