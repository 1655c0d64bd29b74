package workload

import (
	"math"
	"testing"

	"viator/internal/roles"
	"viator/internal/sim"
)

func TestCBRRate(t *testing.T) {
	k := sim.NewKernel(1)
	var bytes int
	var seqs []int
	tk := CBR(k, "video", 100000, 1000, func(c roles.Chunk) {
		bytes += c.Bytes
		seqs = append(seqs, c.Seq)
	})
	k.Run(10)
	tk.Stop()
	// 100 kB/s over 10 s = 1 MB.
	if math.Abs(float64(bytes)-1e6) > 1e4 {
		t.Fatalf("bytes = %d", bytes)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatal("sequence gap")
		}
	}
}

func TestCBRStops(t *testing.T) {
	k := sim.NewKernel(1)
	n := 0
	tk := CBR(k, "s", 1000, 100, func(roles.Chunk) { n++ })
	k.Run(1)
	tk.Stop()
	before := n
	k.Run(10)
	if n != before {
		t.Fatal("stream after stop")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	k := sim.NewKernel(2)
	rng := sim.NewRNG(3)
	n := 0
	stop := Poisson(k, rng, 50, func(int) { n++ })
	k.Run(100)
	stop()
	// 50/s × 100 s = 5000 ± a few percent.
	if n < 4500 || n > 5500 {
		t.Fatalf("poisson events = %d, want ~5000", n)
	}
}

func TestPoissonStopHalts(t *testing.T) {
	k := sim.NewKernel(2)
	rng := sim.NewRNG(3)
	n := 0
	stop := Poisson(k, rng, 100, func(int) { n++ })
	k.Run(1)
	stop()
	before := n
	k.Run(50)
	if n != before {
		t.Fatal("events after stop")
	}
}

func TestOnOffBurstiness(t *testing.T) {
	k := sim.NewKernel(6)
	rng := sim.NewRNG(7)
	var times []float64
	stop := OnOff(k, rng, "burst", 100000, 0.5, 2.0, 1000, func(c roles.Chunk) {
		times = append(times, k.Now())
	})
	k.Run(60)
	stop()
	if len(times) < 50 {
		t.Fatalf("too few chunks: %d", len(times))
	}
	// Burstiness: the inter-arrival distribution must be bimodal — many
	// short gaps (in-burst) and some long gaps (off periods).
	short, long := 0, 0
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < 0.05 {
			short++
		}
		if gap > 0.5 {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("not bursty: short=%d long=%d", short, long)
	}
	// Duty cycle well below 100%: delivered volume far under rate×time.
	if float64(len(times)*1000) > 0.8*100000*60/1000*1000 {
		t.Fatalf("source not gated: %d chunks", len(times))
	}
}

func TestZipfDraw(t *testing.T) {
	const n, draws = 100, 20000
	z := NewZipf(n, 1.2)
	rng := sim.NewRNG(42)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		idx := z.Draw(rng)
		if idx < 0 || idx >= n {
			t.Fatalf("Draw out of range: %d", idx)
		}
		counts[idx]++
	}
	// Skew: index 0 must dominate the tail's most popular element.
	if counts[0] <= counts[n/2] {
		t.Fatalf("no Zipf skew: counts[0]=%d counts[%d]=%d", counts[0], n/2, counts[n/2])
	}
	// Determinism: same seed, same draw stream.
	r1, r2 := sim.NewRNG(7), sim.NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a, b := z.Draw(r1), z.Draw(r2); a != b {
			t.Fatalf("draw %d: %d != %d with equal seeds", i, a, b)
		}
	}
}

func TestZipfPanicsOnEmptyCatalog(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0, 1) should panic")
		}
	}()
	NewZipf(0, 1)
}
