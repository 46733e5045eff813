package campaign

import (
	"fmt"
	"strings"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// Sec431Result reproduces the §4.3.1 narrative figures:
//
//   - the healthy baseline, ~48000 messages received per minute by the test
//     program;
//   - the faulty-STOP-condition run: "the test program received 5038
//     messages in a one minute period, a decrease of almost 90%";
//   - the GAP-corruption run: long-period timeouts every ~50 ms drag the
//     network "to around 12% of the normal throughput".
type Sec431Result struct {
	// BaselinePerMin is the healthy per-minute delivery rate at the test
	// program (the tapped node's receiver).
	BaselinePerMin float64
	// StopRunPerMin is the same rate under continuous faulty STOP
	// conditions.
	StopRunPerMin float64
	// StopReduction is 1 - StopRunPerMin/BaselinePerMin.
	StopReduction float64
	// GapThroughputFrac is the network-wide throughput under continuous
	// GAP corruption, as a fraction of the healthy network-wide rate.
	GapThroughputFrac float64
	// GapLongTimeouts counts long-period (~50 ms) recoveries during the
	// GAP run.
	GapLongTimeouts uint64
}

// Sec431Options parameterizes the runs.
type Sec431Options struct {
	Seed int64
	// Duration is the measurement window per run. The paper measured a
	// minute; zero selects 5 s, which measures the same rates (scale up
	// via cmd/netfi for the full minute).
	Duration sim.Duration
	// Workers runs the three independent measurement runs concurrently;
	// <= 1 is serial. Results are identical either way.
	Workers int
}

func (o *Sec431Options) fillDefaults() {
	if o.Duration == 0 {
		o.Duration = 5 * sim.Second
	}
}

// sec431DutyPeriod is the metering period of the faulty-STOP run.
const sec431DutyPeriod = 100 * sim.Millisecond

// sec431Run measures delivery at the tapped node and network-wide, both
// per minute, and the long-period timeouts, under the given faults (none
// is the healthy baseline).
func sec431Run(seed int64, d sim.Duration, faults ...loadFault) (tapPerMin float64, totalPerMin float64, longTOs uint64) {
	tb, load := loadPlan{
		bed:      TestbedConfig{Seed: seed, TxQueueLimit: 4},
		faults:   faults,
		duration: d,
	}.run()
	minutes := d.Seconds() / 60
	tapPerMin = float64(load.NodeReceived(tb.cfg.TapNode)) / minutes
	totalPerMin = float64(load.Received()) / minutes
	for p := 0; p < tb.Switch.Ports(); p++ {
		longTOs += tb.Switch.PortCounters(p).LongTimeouts
	}
	for _, n := range tb.Nodes {
		longTOs += n.Interface().Counters().LongTimeouts
	}
	return tapPerMin, totalPerMin, longTOs
}

// RunSec431 executes baseline, faulty-STOP, and GAP-corruption runs. The
// three runs are independent simulations with their own seeds, so they can
// run on the worker pool.
func RunSec431(opts Sec431Options) Sec431Result {
	opts.fillDefaults()
	type run struct {
		tap, total float64
		longTOs    uint64
	}
	runs := RunTrials(3, opts.Workers, func(i int) run {
		var r run
		switch i {
		case 0:
			r.tap, r.total, _ = sec431Run(opts.Seed, opts.Duration)
		case 1:
			// Faulty STOP conditions — the paper's own wording: "erroneous
			// flow control symbols caused, for example, empty buffers to
			// issue STOP commands". Packet-terminating GAPs on the tapped
			// link become spurious STOPs: framing is destroyed and phantom
			// STOP commands stall the senders. Metered to 82 ms out of
			// every 100 ms; armed continuously nothing at all survives
			// (recovery needs a quiet window longer than the ~50 ms
			// long-period timeout).
			stop := symbolFault(myrinet.SymbolGap, myrinet.SymbolStop)
			stop.on, stop.period = 82*sim.Millisecond, sec431DutyPeriod
			r.tap, _, _ = sec431Run(opts.Seed+1, opts.Duration, stop)
		case 2:
			// GAP corruption: packet-terminating GAPs vanish; paths stay
			// occupied until the long-period timeout reclaims them.
			_, r.total, r.longTOs = sec431Run(opts.Seed+2, opts.Duration, symbolFault(myrinet.SymbolGap, myrinet.SymbolIdle))
		}
		return r
	})
	baseTap, baseTotal := runs[0].tap, runs[0].total
	stopTap := runs[1].tap
	gapTotal, gapTOs := runs[2].total, runs[2].longTOs

	res := Sec431Result{
		BaselinePerMin:  baseTap,
		StopRunPerMin:   stopTap,
		GapLongTimeouts: gapTOs,
	}
	if baseTap > 0 {
		res.StopReduction = 1 - stopTap/baseTap
	}
	if baseTotal > 0 {
		res.GapThroughputFrac = gapTotal / baseTotal
	}
	return res
}

// FormatSec431 renders the result against the paper's numbers.
func FormatSec431(r Sec431Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline:            %8.0f msgs/min   (paper: ~48000)\n", r.BaselinePerMin)
	fmt.Fprintf(&b, "faulty STOP run:     %8.0f msgs/min   (paper: 5038, ~90%% decrease)\n", r.StopRunPerMin)
	fmt.Fprintf(&b, "  reduction:         %7.1f%%\n", 100*r.StopReduction)
	fmt.Fprintf(&b, "GAP corruption run:  %7.1f%% of normal throughput (paper: ~12%%)\n", 100*r.GapThroughputFrac)
	fmt.Fprintf(&b, "  long-period timeouts observed: %d\n", r.GapLongTimeouts)
	return b.String()
}
