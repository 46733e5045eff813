package monitor

import (
	"math"
	"math/rand"
	"testing"
)

func TestWelfordAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w Welford
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := 5 + 2*rng.NormFloat64()
		xs = append(xs, x)
		w.Add(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	variance := m2 / float64(len(xs))
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("mean = %v, direct %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-variance) > 1e-9 {
		t.Fatalf("variance = %v, direct %v", w.Variance(), variance)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.5)
	e.Add(0)
	for i := 0; i < 50; i++ {
		e.Add(10)
	}
	if math.Abs(e.Value()-10) > 1e-6 {
		t.Fatalf("EWMA = %v, want ~10", e.Value())
	}
}

func TestShiftDetector(t *testing.T) {
	d := NewShiftDetector()
	rng := rand.New(rand.NewSource(7))
	// Baseline: ~100 with a little jitter.
	for i := 0; i < 64; i++ {
		if d.Add(100 + rng.Float64()) {
			t.Fatalf("false positive on baseline traffic at sample %d", i)
		}
	}
	// One moderate outlier must not fire the smoothed detector (the EWMA
	// moves by alpha*delta, well under the z threshold here)...
	if d.Add(104) {
		t.Fatal("single outlier fired the shift detector")
	}
	// ...but the same level sustained must.
	fired := false
	for i := 0; i < 50; i++ {
		if d.Add(104 + rng.Float64()) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("sustained 2x latency shift went undetected")
	}
}
