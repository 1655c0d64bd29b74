package telemetry

import (
	"math"
	"testing"
	"viator/internal/allocpin"
)

func TestRecorderGaugeAndCounter(t *testing.T) {
	r := NewRecorder(16, 4)
	level, cum := 0.0, 0.0
	r.Gauge("level", func() float64 { return level })
	r.CounterFn("cum", func() float64 { return cum })
	for i := 1; i <= 5; i++ {
		level = float64(i * 10)
		cum += float64(i) // deltas 1,2,3,4,5
		r.Tick(float64(i))
	}
	var gt, gv, ct, cv []float64
	r.EachSample(0, func(tt, v float64) { gt, gv = append(gt, tt), append(gv, v) })
	r.EachSample(1, func(tt, v float64) { ct, cv = append(ct, tt), append(cv, v) })
	wantT := []float64{1, 2, 3, 4, 5}
	wantG := []float64{10, 20, 30, 40, 50}
	wantC := []float64{1, 2, 3, 4, 5}
	for i := range wantT {
		if gt[i] != wantT[i] || gv[i] != wantG[i] {
			t.Fatalf("gauge sample %d = (%v,%v), want (%v,%v)", i, gt[i], gv[i], wantT[i], wantG[i])
		}
		if ct[i] != wantT[i] || cv[i] != wantC[i] {
			t.Fatalf("counter sample %d = (%v,%v), want (%v,%v) [per-tick delta]", i, ct[i], cv[i], wantT[i], wantC[i])
		}
	}
	if r.Last(0) != 50 || r.Last(1) != 5 {
		t.Fatalf("Last = %v/%v", r.Last(0), r.Last(1))
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4, 2)
	v := 0.0
	r.Gauge("v", func() float64 { return v })
	for i := 1; i <= 10; i++ {
		v = float64(i)
		r.Tick(float64(i))
	}
	var ts, vs []float64
	r.EachSample(0, func(tt, vv float64) { ts, vs = append(ts, tt), append(vs, vv) })
	if len(vs) != 4 {
		t.Fatalf("retained %d samples, want 4", len(vs))
	}
	for i, want := range []float64{7, 8, 9, 10} {
		if ts[i] != want || vs[i] != want {
			t.Fatalf("sample %d = (%v,%v), want (%v,%v) — oldest-first after wrap", i, ts[i], vs[i], want, want)
		}
	}
	if r.ticks != 10 {
		t.Fatalf("Ticks = %d", r.ticks)
	}
}

func TestRecorderRollups(t *testing.T) {
	r := NewRecorder(32, 3)
	vals := []float64{5, 1, 3, 10, 2, 6, 7} // windows: {5,1,3}, {10,2,6}; 7 stays open
	i := 0
	r.Gauge("v", func() float64 { return vals[i] })
	for ; i < len(vals); i++ {
		r.Tick(float64(i + 1))
	}
	var rolls []Rollup
	r.EachRollup(0, func(ro Rollup) { rolls = append(rolls, ro) })
	want := []Rollup{
		{T: 3, Min: 1, Mean: 3, Max: 5},
		{T: 6, Min: 2, Mean: 6, Max: 10},
	}
	if len(rolls) != len(want) {
		t.Fatalf("got %d rollups, want %d", len(rolls), len(want))
	}
	for j, w := range want {
		if rolls[j] != w {
			t.Fatalf("rollup %d = %+v, want %+v", j, rolls[j], w)
		}
	}
}

func TestRecorderBeforeTick(t *testing.T) {
	r := NewRecorder(8, 2)
	census := 0.0
	prepRuns := 0
	r.BeforeTick(func() { prepRuns++; census = float64(prepRuns) * 100 })
	r.Gauge("a", func() float64 { return census })
	r.Gauge("b", func() float64 { return census })
	r.Tick(1)
	r.Tick(2)
	if prepRuns != 2 {
		t.Fatalf("prep ran %d times for 2 ticks", prepRuns)
	}
	if r.Last(0) != 200 || r.Last(1) != 200 {
		t.Fatalf("gauges saw %v/%v, want the shared prepped snapshot", r.Last(0), r.Last(1))
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder(8, 2)
	cum := 0.0
	r.CounterFn("c", func() float64 { return cum })
	cum = 5
	r.Tick(1)
	r.Reset()
	if r.ticks != 0 {
		t.Fatalf("Ticks after reset = %d", r.ticks)
	}
	cum = 7
	r.Tick(1)
	// Baseline re-sampled at Reset (5), so the first post-reset delta is 2.
	if r.Last(0) != 2 {
		t.Fatalf("post-reset counter delta = %v, want 2", r.Last(0))
	}
	n := 0
	r.EachRollup(0, func(Rollup) { n++ })
	if n != 0 {
		t.Fatalf("rollups survived reset")
	}
}

func TestRecorderTickAllocFree(t *testing.T) {
	r := NewRecorder(64, 4)
	x := 0.0
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			r.Gauge("g", func() float64 { return x })
		} else {
			r.CounterFn("c", func() float64 { return x })
		}
	}
	now := 0.0
	allocpin.Zero(t, 500, func() {
		now++
		x = math.Sqrt(now)
		r.Tick(now)
	}, "(*Recorder).Tick")
}

func TestRecorderRegisterAfterTickPanics(t *testing.T) {
	r := NewRecorder(4, 2)
	r.Tick(1)
	defer func() {
		if recover() == nil {
			t.Fatal("registering after the first Tick should panic")
		}
	}()
	r.Gauge("late", func() float64 { return 0 })
}
