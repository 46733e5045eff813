package campaign

import (
	"netfi/internal/core"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// loadPlan is one Fig. 10 load campaign, the sequence every load-driven
// experiment of §4 follows (§4.2, §4.4): build the bed from a known good
// state, program the injector over the serial console, drive the load with
// the faults armed on schedule, then disarm and let in-flight traffic drain
// before anything is counted. RunSpec builds one from JSON; the §4.3.1,
// Table 4 and pass-through campaigns build theirs directly.
type loadPlan struct {
	bed      TestbedConfig
	load     LoadConfig
	faults   []loadFault
	duration sim.Duration
}

// loadFault is one injector activation: cmds are sent over the serial
// console to each direction in dirs ("L" is the tapped node toward the
// switch, "R" the reverse) with the trigger off, then the trigger is armed
// in mode at `at` after the load starts — for `on` out of every `period`
// when period > 0, else for the rest of the run.
type loadFault struct {
	dirs           []string
	cmds           []string
	mode           core.MatchMode
	at, on, period sim.Duration
}

// bothDirs programs a fault on both directions of the tapped cable.
var bothDirs = []string{"L", "R"}

// symbolFault corrupts every occurrence of mask into repl in both
// directions, armed continuously; callers meter it through on/period.
func symbolFault(mask, repl myrinet.Symbol) loadFault {
	return loadFault{
		dirs: bothDirs,
		cmds: []string{
			"COMPARE -- -- -- " + byteEntry(mask),
			"CORRUPT REPLACE -- -- -- " + byteEntry(repl),
		},
		mode: core.MatchOn,
	}
}

// loadDrain is how long a run continues after the load stops, so packets
// in flight are delivered or lost before the counters are read.
const loadDrain = 100 * sim.Millisecond

// run executes the plan from a fresh test bed and returns the bed and its
// load for the caller to measure.
func (p loadPlan) run() (*Testbed, *Load) {
	tb := NewTestbed(p.bed)
	for _, f := range p.faults {
		for _, d := range f.dirs {
			tb.Configure(append([]string{"DIR " + d, "MODE OFF"}, f.cmds...)...)
		}
	}
	for _, f := range p.faults {
		f.schedule(tb, p.duration)
	}
	load := tb.StartLoad(p.load)
	tb.K.RunFor(p.duration)
	load.Stop()
	if tb.Injector != nil {
		tb.ConfigureBothMode(false)
	}
	tb.K.RunFor(loadDrain)
	return tb, load
}

// schedule arms f as direct register pokes relative to now, the start of
// the load. The serial path cannot be driven from inside a simulation
// event, and the paper's own campaigns pre-programmed the patterns and
// toggled only the match mode during a run.
func (f loadFault) schedule(tb *Testbed, duration sim.Duration) {
	engines := make([]*core.Engine, 0, len(f.dirs))
	for _, d := range f.dirs {
		dir := DirOutbound
		if d == "R" {
			dir = DirInbound
		}
		engines = append(engines, tb.Injector.Engine(dir))
	}
	arm := func(m core.MatchMode) func() {
		return func() {
			for _, e := range engines {
				e.SetMatchMode(m)
			}
		}
	}
	if f.period <= 0 {
		tb.K.After(f.at, arm(f.mode))
		return
	}
	// Metered arming: re-arm each period, disarm after the on-window.
	n := dutyPeriods(duration, f.at, f.period)
	for i := int64(0); i < n; i++ {
		start := f.at + sim.Duration(i)*f.period
		tb.K.After(start, arm(f.mode))
		tb.K.After(start+f.on, arm(core.MatchOff))
	}
}

// dutyPeriods is how many periods a fault metered from at arms for in a
// load window of the given duration.
func dutyPeriods(duration, at, period sim.Duration) int64 {
	return int64((duration-at)/period) + 1
}
