package campaign

import (
	"encoding/json"
	"fmt"
	"strings"

	"netfi/internal/core"
	"netfi/internal/sim"
)

// Spec is a declarative fault-injection campaign, the way NFTAPE scripts
// drove the real board: a workload, a list of timed fault activations
// (raw injector command lines plus arming/metering), and a measurement
// window. Specs serialize to JSON for cmd/campaign.
type Spec struct {
	// Name labels the campaign in results.
	Name string `json:"name"`
	// Seed drives the deterministic run. Zero selects 1.
	Seed int64 `json:"seed,omitempty"`
	// DurationMS is the measured load window in simulated milliseconds.
	// Zero selects 1000.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Mapping enables the MCP mapping plane (default static routes).
	Mapping bool `json:"mapping,omitempty"`
	// TxQueueLimit bounds each NIC ring (0 = testbed default).
	TxQueueLimit int `json:"tx_queue_limit,omitempty"`
	// Load overrides the workload (zero values = defaults).
	Load LoadSpec `json:"load,omitempty"`
	// Faults lists the injector activations.
	Faults []FaultSpec `json:"faults"`
}

// LoadSpec mirrors LoadConfig in JSON-friendly units.
type LoadSpec struct {
	Burst    int     `json:"burst,omitempty"`
	PeriodMS float64 `json:"period_ms,omitempty"`
	Size     int     `json:"size,omitempty"`
}

// FaultSpec is one injector activation.
type FaultSpec struct {
	// Direction is "L" (tapped node → switch), "R" (switch → tapped
	// node), or "both" (default).
	Direction string `json:"direction,omitempty"`
	// Commands are raw injector command lines (COMPARE/CORRUPT/CRC ...),
	// sent over the serial console; do not include MODE — arming is
	// controlled by Mode and the duty fields.
	Commands []string `json:"commands"`
	// Mode is "on" (default) or "once".
	Mode string `json:"mode,omitempty"`
	// AtMS delays the activation from the start of the load.
	AtMS float64 `json:"at_ms,omitempty"`
	// DutyOnMS/DutyPeriodMS meter the trigger; zero means armed
	// continuously from AtMS.
	DutyOnMS     float64 `json:"duty_on_ms,omitempty"`
	DutyPeriodMS float64 `json:"duty_period_ms,omitempty"`
}

// SpecResult is the measured outcome of a Spec run.
type SpecResult struct {
	Name            string            `json:"name"`
	Sent            uint64            `json:"sent"`
	Received        uint64            `json:"received"`
	LossRate        float64           `json:"loss_rate"`
	CorruptAccepted uint64            `json:"corrupt_accepted"`
	Classification  string            `json:"classification"`
	Injections      uint64            `json:"injections"`
	Matches         uint64            `json:"matches"`
	Drops           map[string]uint64 `json:"drops,omitempty"`
}

// maxSpecMS bounds every time in a spec (about 11.6 simulated days), so
// sums of spec times stay inside the kernel's picosecond clock.
const maxSpecMS = 1e9

// checkMS rejects a spec time that is negative or beyond maxSpecMS.
func checkMS(field string, v float64) error {
	if v < 0 || v > maxSpecMS {
		return fmt.Errorf("campaign: %s %g out of range [0, %g]", field, v, float64(maxSpecMS))
	}
	return nil
}

// maxDutyPeriods bounds a metered fault's periods over the load window.
// RunSpec schedules two arming events per period up front, so this bounds
// the events and memory a spec can ask for.
const maxDutyPeriods = 100_000

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos in
// campaign files fail loudly, and rejecting values RunSpec cannot run:
// negative or out-of-range times, negative counts, a load payload too
// small for its tag, a duty period shorter than one simulated picosecond,
// and more than maxDutyPeriods duty periods in the load window.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: bad spec: %w", err)
	}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("campaign: spec needs a name")
	}
	if err := checkMS("duration_ms", s.DurationMS); err != nil {
		return Spec{}, err
	}
	if err := checkMS("load.period_ms", s.Load.PeriodMS); err != nil {
		return Spec{}, err
	}
	if s.TxQueueLimit < 0 || s.Load.Burst < 0 || s.Load.Size < 0 {
		return Spec{}, fmt.Errorf("campaign: negative count (tx_queue_limit %d, load.burst %d, load.size %d)",
			s.TxQueueLimit, s.Load.Burst, s.Load.Size)
	}
	if s.Load.Size > 0 && s.Load.Size < minLoadSize {
		return Spec{}, fmt.Errorf("campaign: load.size %d below the %d-byte minimum", s.Load.Size, minLoadSize)
	}
	for i, f := range s.Faults {
		for _, t := range []struct {
			field string
			v     float64
		}{{"at_ms", f.AtMS}, {"duty_on_ms", f.DutyOnMS}, {"duty_period_ms", f.DutyPeriodMS}} {
			if err := checkMS(t.field, t.v); err != nil {
				return Spec{}, fmt.Errorf("campaign: fault %d: %w", i, err)
			}
		}
		if f.DutyPeriodMS > 0 && ms(f.DutyPeriodMS) < sim.Picosecond {
			return Spec{}, fmt.Errorf("campaign: fault %d: duty_period_ms %g is under one simulated picosecond", i, f.DutyPeriodMS)
		}
		if f.DutyPeriodMS > 0 && dutyPeriods(specDuration(s), ms(f.AtMS), ms(f.DutyPeriodMS)) > maxDutyPeriods {
			return Spec{}, fmt.Errorf("campaign: fault %d: duty_period_ms %g gives more than %d periods in the load window",
				i, f.DutyPeriodMS, maxDutyPeriods)
		}
		switch f.Direction {
		case "", "both", "L", "R":
		default:
			return Spec{}, fmt.Errorf("campaign: fault %d: unknown direction %q", i, f.Direction)
		}
		switch f.Mode {
		case "", "on", "once":
		default:
			return Spec{}, fmt.Errorf("campaign: fault %d: unknown mode %q", i, f.Mode)
		}
		if (f.DutyOnMS > 0) != (f.DutyPeriodMS > 0) {
			return Spec{}, fmt.Errorf("campaign: fault %d: duty_on_ms and duty_period_ms go together", i)
		}
		if f.DutyPeriodMS > 0 && f.DutyOnMS > f.DutyPeriodMS {
			return Spec{}, fmt.Errorf("campaign: fault %d: duty on exceeds period", i)
		}
		if len(f.Commands) == 0 {
			return Spec{}, fmt.Errorf("campaign: fault %d: no commands", i)
		}
	}
	return s, nil
}

func ms(v float64) sim.Duration { return sim.Duration(v * float64(sim.Millisecond)) }

// specDuration is the load window of s: DurationMS, or a second if that
// converts to no simulated time.
func specDuration(s Spec) sim.Duration {
	if d := ms(s.DurationMS); d != 0 {
		return d
	}
	return sim.Second
}

// plan converts s into the load campaign RunSpec runs.
func (s Spec) plan() loadPlan {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	p := loadPlan{
		bed: TestbedConfig{
			Seed:         seed,
			Mapping:      s.Mapping,
			TxQueueLimit: s.TxQueueLimit,
		},
		load: LoadConfig{
			Burst:  s.Load.Burst,
			Period: ms(s.Load.PeriodMS),
			Size:   s.Load.Size,
		},
		duration: specDuration(s),
	}
	for _, f := range s.Faults {
		dirs := bothDirs
		if f.Direction == "L" || f.Direction == "R" {
			dirs = []string{f.Direction}
		}
		mode := core.MatchOn
		if f.Mode == "once" {
			mode = core.MatchOnce
		}
		p.faults = append(p.faults, loadFault{
			dirs:   dirs,
			cmds:   f.Commands,
			mode:   mode,
			at:     ms(f.AtMS),
			on:     ms(f.DutyOnMS),
			period: ms(f.DutyPeriodMS),
		})
	}
	return p
}

// RunSpec executes a campaign from a known good state and classifies the
// outcome.
func RunSpec(s Spec) SpecResult {
	tb, load := s.plan().run()
	outcome := load.Classify()
	res := SpecResult{
		Name:            s.Name,
		Sent:            outcome.Sent,
		Received:        outcome.Received,
		LossRate:        outcome.LossRate,
		CorruptAccepted: outcome.CorruptAccepted,
		Classification:  outcome.Classification,
		Drops:           map[string]uint64{},
	}
	for _, dir := range []core.Direction{DirOutbound, DirInbound} {
		_, m, inj := tb.Injector.Engine(dir).Stats()
		res.Matches += m
		res.Injections += inj
	}
	for _, n := range tb.Nodes {
		for r, v := range n.Interface().Counters().Drops {
			res.Drops[r.String()] += v
		}
	}
	for p := 0; p < tb.Switch.Ports(); p++ {
		for r, v := range tb.Switch.PortCounters(p).Drops {
			res.Drops[r.String()] += v
		}
	}
	return res
}

// FormatSpecResult renders a result as text.
func FormatSpecResult(r SpecResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q: sent=%d received=%d loss=%.1f%% class=%s\n",
		r.Name, r.Sent, r.Received, 100*r.LossRate, r.Classification)
	fmt.Fprintf(&b, "  injector: matches=%d injections=%d\n", r.Matches, r.Injections)
	if len(r.Drops) > 0 {
		fmt.Fprintf(&b, "  drops: %v\n", r.Drops)
	}
	return b.String()
}
