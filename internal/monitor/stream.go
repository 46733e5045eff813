package monitor

import "math"

// Welford is the numerically stable single-pass mean/variance accumulator —
// the streaming half of the anomaly pipeline. It never stores samples, so
// a campaign can push one value per burst for minutes of simulated time.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds one sample in.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count reports samples seen.
func (w *Welford) Count() uint64 { return w.n }

// Mean reports the running mean (0 before any sample).
func (w *Welford) Mean() float64 { return w.mean }

// Variance reports the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev reports the running standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Z reports how many standard deviations x sits from the running mean;
// 0 while the accumulator lacks spread.
func (w *Welford) Z(x float64) float64 {
	sd := w.Stddev()
	if sd == 0 {
		return 0
	}
	return (x - w.mean) / sd
}

// EWMA is an exponentially weighted moving average, the fast-adapting
// companion to Welford's long-run statistics: the plane compares the two to
// call sustained shifts without reacting to single outliers.
type EWMA struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA returns an average with the given smoothing factor in (0, 1];
// higher alpha weighs recent samples more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	return &EWMA{alpha: alpha}
}

// Add folds one sample in. The first sample initializes the average.
func (e *EWMA) Add(x float64) {
	if !e.seen {
		e.value = x
		e.seen = true
		return
	}
	e.value += e.alpha * (x - e.value)
}

// Value reports the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

// ShiftDetector flags sustained latency shifts in a sample stream: it
// baselines with Welford over shiftWarmup samples, then reports an anomaly
// when the EWMA departs from the baseline mean by more than shiftZ standard
// deviations. Comparing the smoothed average (not the raw sample) means a
// single late burst does not fire it, but a shifted distribution does.
type ShiftDetector struct {
	base   Welford
	recent *EWMA
}

const (
	// shiftWarmup is the baseline sample count.
	shiftWarmup = 32
	// shiftZ is the smoothed deviation, in baseline standard deviations,
	// that counts as a shift.
	shiftZ = 6
)

// NewShiftDetector returns a detector requiring shiftWarmup baseline
// samples and firing beyond shiftZ standard deviations.
func NewShiftDetector() *ShiftDetector {
	return &ShiftDetector{recent: NewEWMA(0.2)}
}

// Add folds one sample in and reports whether it completes a detected
// shift. During warmup every sample extends the baseline; after it the
// baseline freezes and only the EWMA tracks the stream.
func (d *ShiftDetector) Add(x float64) bool {
	if d.base.Count() < shiftWarmup {
		d.base.Add(x)
		d.recent.Add(x)
		return false
	}
	d.recent.Add(x)
	return math.Abs(d.base.Z(d.recent.Value())) >= shiftZ
}

// Z reports the current smoothed deviation from the baseline.
func (d *ShiftDetector) Z() float64 { return d.base.Z(d.recent.Value()) }
