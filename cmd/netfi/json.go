package main

import (
	"encoding/json"
	"fmt"

	"netfi/internal/campaign"
	"netfi/internal/monitor"
	"netfi/internal/sim"
)

// The -json views: durations render as milliseconds so consumers never need
// the simulator's time base.

// jsonOutcome is the outcome, counter and detection block every trial view
// shares.
type jsonOutcome struct {
	Sent           int     `json:"sent"`
	Delivered      uint64  `json:"delivered"`
	Retransmits    uint64  `json:"retransmits"`
	GaveUp         uint64  `json:"gave_up"`
	RecoveryEvents uint64  `json:"recovery_events"`
	Injections     uint64  `json:"injections"`
	HeldOutputs    int     `json:"held_outputs"`
	InjectedAtMs   float64 `json:"injected_at_ms"` // -1: no fault landed
	Detected       bool    `json:"detected"`
	DetectLatMs    float64 `json:"detect_latency_ms"` // -1: undetected
	DetectSource   string  `json:"detect_source,omitempty"`
	FlowsExported  uint64  `json:"flows_exported"`
}

type jsonTrial struct {
	ID      int    `json:"id"`
	Family  string `json:"family"`
	Outcome string `json:"outcome"`
	jsonOutcome
}

type jsonDetection struct {
	Injected          int       `json:"injected"`
	NonMasked         int       `json:"non_masked"`
	Detected          int       `json:"detected"`
	DetectedNonMasked int       `json:"detected_non_masked"`
	Coverage          float64   `json:"coverage_non_masked"`
	LatencyCDFMs      []float64 `json:"latency_cdf_ms"`
}

type jsonSweep struct {
	Trials    []jsonTrial    `json:"trials"`
	Tally     map[string]int `json:"tally"`
	Detection jsonDetection  `json:"detection"`
}

type jsonResilience struct {
	Section     string    `json:"section"`
	Seed        int64     `json:"seed"`
	RecoveryOn  jsonSweep `json:"recovery_on"`
	RecoveryOff jsonSweep `json:"recovery_off"`
}

type jsonChaosTrial struct {
	ID        int     `json:"id"`
	Plan      string  `json:"plan"`
	K         int     `json:"k"`
	Outcome   string  `json:"outcome"`
	Quiesce   string  `json:"quiesce,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	jsonOutcome
	Error string `json:"error,omitempty"`
}

type jsonChaos struct {
	Section   string                    `json:"section"`
	Seed      int64                     `json:"seed"`
	Forks     int                       `json:"forks"`
	MaxK      int                       `json:"max_k"`
	Trials    []jsonChaosTrial          `json:"trials"`
	Tally     map[string]int            `json:"tally"`
	PerK      map[string]map[string]int `json:"per_k"`
	Detection jsonDetection             `json:"detection"`
}

type jsonEvent struct {
	TimeMs float64 `json:"time_ms"`
	Kind   string  `json:"kind"`
	Source string  `json:"source"`
	Detail string  `json:"detail"`
	Value  float64 `json:"value"`
}

type jsonFlow struct {
	Tap     string  `json:"tap"`
	Src     string  `json:"src"`
	Dst     string  `json:"dst"`
	Packets uint64  `json:"packets"`
	Bytes   uint64  `json:"bytes"`
	FirstMs float64 `json:"first_ms"`
	LastMs  float64 `json:"last_ms"`
	Cause   string  `json:"cause"`
}

type jsonMonitor struct {
	Section        string               `json:"section"`
	Seed           int64                `json:"seed"`
	Sent           int                  `json:"sent"`
	Delivered      uint64               `json:"delivered"`
	Retransmits    uint64               `json:"retransmits"`
	RecoveryEvents uint64               `json:"recovery_events"`
	Injections     uint64               `json:"injections"`
	InjectedAtMs   float64              `json:"injected_at_ms"`
	DetectLatMs    float64              `json:"detect_latency_ms"`
	DetectSource   string               `json:"detect_source,omitempty"`
	Ticks          uint64               `json:"ticks"`
	Events         []jsonEvent          `json:"events"`
	FlowsExported  uint64               `json:"flows_exported"`
	FlowsDropped   uint64               `json:"flows_dropped"`
	Flows          []jsonFlow           `json:"flows"`
	Taps           []campaign.TapTotals `json:"taps"`
}

type jsonFabric struct {
	Section       string   `json:"section"`
	Seed          int64    `json:"seed"`
	Switches      int      `json:"switches"`
	Hosts         int      `json:"hosts"`
	Shards        int      `json:"shards"`
	Drained       bool     `json:"drained"`
	SimTimeMs     float64  `json:"sim_time_ms"`
	WallMs        float64  `json:"wall_ms"`
	Sent          uint64   `json:"sent"`
	Delivered     uint64   `json:"delivered"`
	Bytes         uint64   `json:"bytes"`
	Symbols       uint64   `json:"symbols"`
	Events        uint64   `json:"events"`
	Windows       uint64   `json:"windows"`
	Exchanged     uint64   `json:"exchanged"`
	EventsPerWin  float64  `json:"events_per_window"`
	WinPerSimSec  float64  `json:"windows_per_simsec"`
	SymbolsPerSec float64  `json:"symbols_per_sec"`
	ShardEvents   []uint64 `json:"shard_events"`
}

func viewFabric(res campaign.FabricResult) jsonFabric {
	v := jsonFabric{
		Section: "fabric", Seed: res.Cfg.Topo.Seed,
		Switches: res.Cfg.Topo.Switches, Hosts: res.Cfg.Topo.Hosts,
		Shards:    res.Cfg.Topo.Shards,
		Drained:   res.Drained,
		SimTimeMs: sim.Duration(res.SimTime).Seconds() * 1000,
		WallMs:    float64(res.Wall.Nanoseconds()) / 1e6,
		Sent:      res.Sent, Delivered: res.Delivered,
		Bytes: res.Bytes, Symbols: res.Symbols,
		Events: res.Events, Windows: res.Windows, Exchanged: res.Exchanged,
		EventsPerWin:  res.EventsPerWindow(),
		WinPerSimSec:  res.WindowsPerSimSec(),
		SymbolsPerSec: res.SymbolsPerSec(),
		ShardEvents:   res.ShardEvents,
	}
	if v.ShardEvents == nil {
		v.ShardEvents = []uint64{}
	}
	return v
}

func ms(d sim.Duration) float64 {
	if d < 0 {
		return -1
	}
	return d.Seconds() * 1000
}

func viewOutcome(r campaign.TrialResult) jsonOutcome {
	v := jsonOutcome{
		Sent: r.Sent, Delivered: r.Delivered, Retransmits: r.Retransmits,
		GaveUp: r.GaveUp, RecoveryEvents: r.RecoveryEvents,
		Injections: r.Injections, HeldOutputs: r.HeldOutputs,
		InjectedAtMs: ms(r.InjectedAt), Detected: r.Detected,
		DetectLatMs: -1, DetectSource: r.DetectSource,
		FlowsExported: r.FlowsExported,
	}
	if r.Detected {
		v.DetectLatMs = ms(r.DetectLatency)
	}
	return v
}

func viewTally(counts map[campaign.TrialOutcome]int) map[string]int {
	m := map[string]int{}
	for o, n := range counts {
		m[string(o)] = n
	}
	return m
}

func viewDetection(det campaign.DetectionStats) jsonDetection {
	v := jsonDetection{
		Injected: det.Injected, NonMasked: det.NonMasked,
		Detected: det.Detected, DetectedNonMasked: det.DetectedNonMasked,
		Coverage:     det.CoverageNonMasked(),
		LatencyCDFMs: []float64{},
	}
	for _, l := range det.Latencies {
		v.LatencyCDFMs = append(v.LatencyCDFMs, ms(l))
	}
	return v
}

func viewSweep(trials []campaign.ResilienceTrial) jsonSweep {
	sw := jsonSweep{
		Tally:     viewTally(campaign.CountOutcomes(trials)),
		Detection: viewDetection(campaign.ComputeDetection(trials)),
	}
	for _, t := range trials {
		sw.Trials = append(sw.Trials, jsonTrial{
			ID: t.ID, Family: t.Family, Outcome: string(t.Outcome),
			jsonOutcome: viewOutcome(t.TrialResult),
		})
	}
	return sw
}

func viewChaos(res campaign.ChaosResult) jsonChaos {
	v := jsonChaos{
		Section: "chaos", Seed: res.Seed, Forks: res.Forks, MaxK: res.MaxK,
		Trials:    []jsonChaosTrial{},
		Tally:     viewTally(campaign.CountOutcomes(res.Trials)),
		PerK:      map[string]map[string]int{},
		Detection: viewDetection(campaign.ComputeDetection(res.Trials)),
	}
	for _, t := range res.Trials {
		v.Trials = append(v.Trials, jsonChaosTrial{
			ID: t.ID, Plan: t.Plan, K: t.K, Outcome: string(t.Outcome),
			Quiesce: t.Quiesce, ElapsedMs: ms(t.Elapsed),
			jsonOutcome: viewOutcome(t.TrialResult), Error: t.Err,
		})
		k := fmt.Sprintf("%d", t.K)
		if v.PerK[k] == nil {
			v.PerK[k] = map[string]int{}
		}
		v.PerK[k][string(t.Outcome)]++
	}
	return v
}

func viewEvents(events []monitor.Event) []jsonEvent {
	out := []jsonEvent{}
	for _, e := range events {
		out = append(out, jsonEvent{
			TimeMs: e.Time.Seconds() * 1000, Kind: e.Kind.String(),
			Source: e.Source, Detail: e.Detail, Value: e.Value,
		})
	}
	return out
}

func viewFlows(flows []monitor.FlowRecord) []jsonFlow {
	out := []jsonFlow{}
	for _, f := range flows {
		out = append(out, jsonFlow{
			Tap: f.Tap, Src: fmt.Sprintf("%x", f.Key.Src), Dst: fmt.Sprintf("%x", f.Key.Dst),
			Packets: f.Packets, Bytes: f.Bytes,
			FirstMs: f.First.Seconds() * 1000, LastMs: f.Last.Seconds() * 1000,
			Cause: f.Cause.String(),
		})
	}
	return out
}

// jsonReport renders the sections with structured output. Sections without a
// machine-readable form report an error (the caller exits 2, matching the
// unknown-experiment path).
func jsonReport(name string, o expOpts) (string, error) {
	var v any
	switch name {
	case "resilience":
		res := campaign.RunResilience(resilienceOptions(o))
		v = jsonResilience{
			Section: "resilience", Seed: o.seed,
			RecoveryOn:  viewSweep(res.Trials),
			RecoveryOff: viewSweep(res.Baseline),
		}
	case "monitor":
		res := campaign.RunMonitor(campaign.MonitorOptions{Seed: o.seed})
		v = jsonMonitor{
			Section: "monitor", Seed: o.seed,
			Sent: res.Sent, Delivered: res.Delivered, Retransmits: res.Retransmits,
			RecoveryEvents: res.RecoveryEvents, Injections: res.Injections,
			InjectedAtMs: ms(res.InjectedAt), DetectLatMs: ms(res.DetectLatency),
			DetectSource: res.DetectSource, Ticks: res.Ticks,
			Events:        viewEvents(res.Events),
			FlowsExported: res.FlowsExported, FlowsDropped: res.FlowsDropped,
			Flows: viewFlows(res.Flows), Taps: res.Taps,
		}
	case "chaos":
		v = viewChaos(campaign.RunChaos(chaosOptions(o)))
	case "fabric":
		res, err := runFabric(o)
		if err != nil {
			return "", err
		}
		v = viewFabric(res)
	default:
		return "", fmt.Errorf("-json supports resilience, monitor, chaos, and fabric, not %q", name)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}
