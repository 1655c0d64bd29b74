package perf

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pb) uint(field int, v uint64) {
	p.varint(uint64(field)<<3 | wireVarint)
	p.varint(v)
}

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | wireBytes)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) msg(field int, fill func(*pb)) {
	var m pb
	fill(&m)
	p.bytes(field, m.b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var m pb
	for _, v := range vs {
		m.varint(v)
	}
	p.bytes(field, m.b)
}

// testProfile encodes a profile with two functions inlined at one
// location (sort.Search into a topo method), a root-package frame, and
// both encodings of repeated fields: sample 1 lists its locations packed,
// sample 2 one field per value.
func testProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"sort.Search", "/go/src/sort/search.go",
		"viator/internal/topo.(*Graph).ComputeInto", "/src/internal/topo/graph.go",
		"viator.(*RunHandle).StepTo", "/src/live.go"}
	var p pb
	p.msg(profSampleType, func(m *pb) { m.uint(vtType, 1); m.uint(vtUnit, 2) })
	p.msg(profSampleType, func(m *pb) { m.uint(vtType, 3); m.uint(vtUnit, 4) })
	p.msg(profSample, func(m *pb) {
		m.packed(sampleLocationID, 1, 2)
		m.packed(sampleValue, 3, 30)
	})
	p.msg(profSample, func(m *pb) {
		m.uint(sampleLocationID, 2)
		m.uint(sampleValue, 1)
		m.uint(sampleValue, 10)
	})
	p.msg(profLocation, func(m *pb) {
		m.uint(locID, 1)
		m.msg(locLine, func(l *pb) { l.uint(lineFunctionID, 1); l.uint(lineLine, 60) })
		m.msg(locLine, func(l *pb) { l.uint(lineFunctionID, 2); l.uint(lineLine, 120) })
	})
	p.msg(profLocation, func(m *pb) {
		m.uint(locID, 2)
		m.msg(locLine, func(l *pb) { l.uint(lineFunctionID, 3); l.uint(lineLine, 95) })
	})
	for i, f := range [][2]uint64{{5, 6}, {7, 8}, {9, 10}} {
		p.msg(profFunction, func(m *pb) {
			m.uint(fnID, uint64(i+1))
			m.uint(fnName, f[0])
			m.uint(fnFilename, f[1])
		})
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	p.uint(12, 1e7) // period: a field the decoder skips
	return p.b
}

func TestDecodeProfile(t *testing.T) {
	p, err := ParseProfile(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	search := &Function{ID: 1, Name: "sort.Search", Filename: "/go/src/sort/search.go"}
	compute := &Function{ID: 2, Name: "viator/internal/topo.(*Graph).ComputeInto", Filename: "/src/internal/topo/graph.go"}
	step := &Function{ID: 3, Name: "viator.(*RunHandle).StepTo", Filename: "/src/live.go"}
	l1 := &Location{ID: 1, Lines: []Line{{search, 60}, {compute, 120}}}
	l2 := &Location{ID: 2, Lines: []Line{{step, 95}}}
	want := &Profile{
		SampleTypes: []ValueType{{"samples", "count"}, {"cpu", "nanoseconds"}},
		Samples:     []Sample{{[]*Location{l1, l2}, []int64{3, 30}}, {[]*Location{l2}, []int64{1, 10}}},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("decoded %+v\nwant %+v", p, want)
	}

	// The inlined sort.Search is the innermost frame, so its sample is
	// stdlib self time, not topo's.
	self, total, err := p.SelfByLayer("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"stdlib": 30, "scenario": 10}; !reflect.DeepEqual(self, want) || total != 40 {
		t.Fatalf("self %v total %d, want %v total 40", self, total, want)
	}
	if _, _, err := p.SelfByLayer("alloc_space"); err == nil {
		t.Fatal("SelfByLayer accepted a missing sample type")
	}
}

func TestDecodeProfileRejectsCorruptInput(t *testing.T) {
	good := testProfile()
	for name, data := range map[string][]byte{
		"truncated":  good[:len(good)-3],
		"bad length": {byte(profSample<<3 | wireBytes), 0x7f},
		"wire type":  {byte(profSample<<3 | 3)},
	} {
		if _, err := ParseProfile(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			n += i % 7
		}
	}
	return n
}

// TestDecodeRuntimeProfile round-trips a real runtime/pprof profile: the
// function that burned the CPU is found and charged to this module.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) == 0 {
		t.Skip("profiler took no samples")
	}
	found := false
	for _, s := range p.Samples {
		for _, l := range s.Locations {
			for _, ln := range l.Lines {
				found = found || ln.Function.Name == "viator/bench/perf.burnCPU"
			}
		}
	}
	if !found {
		t.Error("no sample names burnCPU")
	}
	self, total, err := p.SelfByLayer("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if self["bench"] == 0 || total == 0 {
		t.Errorf("bench self %d of %d", self["bench"], total)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"viator/internal/topo.(*Graph).ComputeInto", "/r/internal/topo/graph.go", "topo"},
		{"viator/internal/routing.(*Adaptive).NextHop", "", "routing"},
		{"viator/internal/sim.(*Kernel).Run", "", "sim"},
		{"viator/internal/netsim.(*Net).Send", "", "netsim"},
		{"viator/internal/mobility.(*RandomWaypoint).StepInto", "", "mobility"},
		{"viator/internal/cluster.(*Community).GossipRound", "", "principles"},
		{"viator/internal/kq.(*Store).Observe", "", "principles"},
		{"viator/internal/shuttle.New", "", "components"},
		{"viator/internal/vm.(*Machine).Eval", "", "components"},
		{"viator/internal/mc.LeadsTo[go.shape.int]", "", "mc"},
		{"viator/internal/mc.Explore[go.shape.struct { viator/internal/spec.S int }].func1", "", "mc"},
		{"viator/internal/spec.(*Model).Next", "", "mc"},
		{"viator/internal/stats.(*Table).String", "", "telemetry"},
		{"viator/internal/trace.(*Log).Add", "", "telemetry"},
		{"viator/internal/serve.(*Server).handleMetrics", "", "serve"},
		{"viator/internal/workload.Poisson.func1", "", "scenario"},
		{"viator/internal/scenario.Parse", "", "scenario"},
		{"viator/internal/baseline.(*ANTS).Send", "", "harness"},
		{"viator.(*Scenario).start", "/r/scenario.go", "scenario"},
		{"viator.(*shardedRun).finish", "/r/shardrun.go", "scenario"},
		{"viator.(*RunHandle).StepTo", "/r/live.go", "scenario"},
		{"viator.RunE1.func2", "/r/experiment_e1.go", "harness"},
		{"viator.(*Registry).RunReplicated", "/r/replicate.go", "harness"},
		{"viator.DefaultRegistry.func1", "/r/registry.go", "harness"},
		{"viator.(*Network).KillShip", "/r/network.go", "viator"},
		{"viator.(*Healer).pulse", "/r/selfhealing.go", "viator"},
		{"viator/bench/perf.runScenario", "", "bench"},
		{"main.childCmd", "", "bench"},
		{"runtime.mallocgc", "", "runtime"},
		{"runtime/internal/atomic.Load", "", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "", "runtime"},
		{"type:.eq.viator/internal/topo.Point", "", "runtime"},
		{"", "", "runtime"},
		{"net/http.(*conn).serve", "", "stdlib"},
		{"sync.(*Mutex).Lock", "", "stdlib"},
		{"sort.Search", "", "stdlib"},
	} {
		if got := LayerOf(c.fn, c.file); got != c.want {
			t.Errorf("LayerOf(%q, %q) = %s, want %s", c.fn, c.file, got, c.want)
		}
	}
}
