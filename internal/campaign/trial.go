package campaign

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"netfi/internal/host"
	"netfi/internal/monitor"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// The fault-trial life cycle. The resilience, monitor and chaos campaigns
// all run the paper's NFTAPE loop (§1, §4.4) on a recovery-armed Fig. 10
// testbed: arm the monitoring plane (armPlane), arm its probes and the
// first-onset mark (startTrial), schedule the fault and a paced workload,
// run to quiescence (trialRun.run), then read the counters and the
// detection axis off the world (trialRun.finish) and classify. Each
// campaign keeps its own fault schedule and hung predicates; everything
// else is written once here.

// TrialOutcome classifies one fault trial. The triage extends the paper's
// active/passive fault split (§4.4) with the recovery layer's vocabulary:
// how, not just whether, the network absorbed the fault.
type TrialOutcome string

const (
	// OutcomeMasked — the fault landed (or missed) without any observable
	// application effect: every message arrived on the first attempt.
	OutcomeMasked TrialOutcome = "masked"
	// OutcomeRetransmitted — the fault destroyed traffic, and the reliable
	// transport's retry restored it end to end.
	OutcomeRetransmitted TrialOutcome = "retransmitted"
	// OutcomeResetRecovered — a link reset or watchdog had to break a
	// wedged path before delivery could complete.
	OutcomeResetRecovered TrialOutcome = "reset-recovered"
	// OutcomeDegraded — the trial terminated but messages were lost for
	// good (the transport gave up, or a plain-UDP run lost traffic).
	OutcomeDegraded TrialOutcome = "degraded"
	// OutcomeDropped — recovery-off only: messages vanished with the
	// network itself still healthy.
	OutcomeDropped TrialOutcome = "dropped"
	// OutcomeHung — the paper's failure mode: a path stayed wedged, either
	// as frozen progress or a switch output still owned after the network
	// drained (§4.3.1's blocked-forever packet).
	OutcomeHung TrialOutcome = "hung"
	// OutcomeWallClock — chaos only: the per-fork real-time escape hatch
	// tripped; the result is timing-dependent and reported apart.
	OutcomeWallClock TrialOutcome = "wallclock"
	// OutcomeError — chaos only: the trial panicked; see ChaosTrial.Err.
	OutcomeError TrialOutcome = "error"
)

// outcomeOrder fixes the order every tally renders in.
var outcomeOrder = []TrialOutcome{
	OutcomeMasked, OutcomeRetransmitted, OutcomeResetRecovered,
	OutcomeDegraded, OutcomeDropped, OutcomeHung, OutcomeWallClock, OutcomeError,
}

// TrialResult is the outcome, counter and detection record every fault
// trial fills; ResilienceTrial and ChaosTrial embed it.
type TrialResult struct {
	Outcome TrialOutcome
	Quiesce string // drained / stalled / deadline / wallclock (from RunUntilQuiescent)
	Elapsed sim.Duration

	Sent        int
	Delivered   uint64
	Retransmits uint64
	GaveUp      uint64
	// RecoveryEvents sums link resets, RESETs received, stop-watchdog and
	// blocked-timeout fires over every switch port and interface.
	RecoveryEvents uint64
	// Injections is the injector's own count of characters it perturbed.
	Injections uint64
	// HeldOutputs is the switch's owned-output count after quiescence.
	HeldOutputs int

	// Detection axis (the monitoring plane runs armed in every trial).
	// InjectedAt is when the first fault landed, relative to trial start;
	// negative when none did.
	InjectedAt sim.Duration
	// Detected reports whether the plane raised any event at or after
	// the injection.
	Detected bool
	// DetectLatency is first-event time minus injection time.
	DetectLatency sim.Duration
	// DetectSource names the first detector that fired, as
	// "source/detail" (e.g. "node1.rx/phi", "net.drops/loss-burst").
	DetectSource string
	// FlowsExported counts NetFlow records the plane's switch taps
	// exported over the trial.
	FlowsExported uint64
}

func (r TrialResult) result() TrialResult { return r }

// trialRecord is any campaign's trial: a type embedding TrialResult.
type trialRecord interface{ result() TrialResult }

// deliveredAll triages a trial that delivered every message: how the
// network absorbed the fault.
func (r TrialResult) deliveredAll() TrialOutcome {
	switch {
	case r.RecoveryEvents > 0:
		return OutcomeResetRecovered
	case r.Retransmits > 0:
		return OutcomeRetransmitted
	default:
		return OutcomeMasked
	}
}

// summary renders the counter and detection columns of a trial line.
func (r TrialResult) summary() string {
	return fmt.Sprintf("del=%d/%d retx=%d gaveup=%d resets=%d inj=%d det=%s (%s, %.1f ms)",
		r.Delivered, r.Sent, r.Retransmits, r.GaveUp, r.RecoveryEvents,
		r.Injections, formatDetection(r), r.Quiesce, r.Elapsed.Seconds()*1000)
}

// formatDetection renders a trial's detection cell.
func formatDetection(r TrialResult) string {
	switch {
	case r.InjectedAt < 0:
		return "-"
	case !r.Detected:
		return "miss"
	default:
		return fmt.Sprintf("%.1fms:%s", r.DetectLatency.Seconds()*1000, r.DetectSource)
	}
}

// CountOutcomes tallies a sweep's triage.
func CountOutcomes[T trialRecord](trials []T) map[TrialOutcome]int {
	m := make(map[TrialOutcome]int)
	for _, t := range trials {
		m[t.result().Outcome]++
	}
	return m
}

// writeTally renders one tally line in outcomeOrder, skipping empty classes.
func writeTally(b *strings.Builder, label string, counts map[TrialOutcome]int) {
	fmt.Fprintf(b, "  %s:", label)
	for _, o := range outcomeOrder {
		if counts[o] > 0 {
			fmt.Fprintf(b, " %s=%d", o, counts[o])
		}
	}
	b.WriteByte('\n')
}

// DetectionStats summarizes one sweep's detection axis.
type DetectionStats struct {
	// Injected counts trials whose fault actually landed on the wire.
	Injected int
	// NonMasked counts injected trials with any observable effect
	// (outcome != masked) — the denominator the ≥90% bound uses.
	NonMasked int
	// Detected / DetectedNonMasked count plane detections among them.
	Detected          int
	DetectedNonMasked int
	// Latencies holds the detection latencies of detected trials, sorted
	// ascending: the detection-latency CDF.
	Latencies []sim.Duration
}

// ComputeDetection tallies the detection axis of a sweep.
func ComputeDetection[T trialRecord](trials []T) DetectionStats {
	var s DetectionStats
	for _, t := range trials {
		r := t.result()
		if r.InjectedAt < 0 {
			continue
		}
		s.Injected++
		masked := r.Outcome == OutcomeMasked
		if !masked {
			s.NonMasked++
		}
		if r.Detected {
			s.Detected++
			if !masked {
				s.DetectedNonMasked++
			}
			s.Latencies = append(s.Latencies, r.DetectLatency)
		}
	}
	sort.Slice(s.Latencies, func(i, j int) bool { return s.Latencies[i] < s.Latencies[j] })
	return s
}

// CoverageNonMasked is the detected fraction of non-masked injected
// failures (1 when there were none).
func (s DetectionStats) CoverageNonMasked() float64 {
	if s.NonMasked == 0 {
		return 1
	}
	return float64(s.DetectedNonMasked) / float64(s.NonMasked)
}

// Quantile returns the q-th latency quantile (0 when nothing was detected).
func (s DetectionStats) Quantile(q float64) sim.Duration {
	if len(s.Latencies) == 0 {
		return 0
	}
	i := int(q * float64(len(s.Latencies)-1))
	return s.Latencies[i]
}

// coverage renders the detection line's counts.
func (s DetectionStats) coverage() string {
	return fmt.Sprintf("%d/%d non-masked (%.0f%%), %d/%d overall",
		s.DetectedNonMasked, s.NonMasked, 100*s.CoverageNonMasked(), s.Detected, s.Injected)
}

// trialRecovery is the recovery layer every recovery-armed trial runs:
// watchdogs shorter than the transport's first RTO, so a wedge is broken by
// a reset before the retry needs the path back.
var trialRecovery = myrinet.RecoveryConfig{
	Enabled:        true,
	BlockedTimeout: 15 * sim.Millisecond,
	StopWatchdog:   25 * sim.Millisecond,
}

// trialPayload returns one workload message body.
func trialPayload() []byte {
	payload := make([]byte, resiliencePayloadLen)
	for i := range payload {
		payload[i] = resiliencePayloadFill
	}
	return payload
}

// newEndpoints binds a reliable transport endpoint on every node.
func newEndpoints(tb *Testbed) []*host.Reliable {
	rels := make([]*host.Reliable, len(tb.Nodes))
	for i, n := range tb.Nodes {
		r, err := host.NewReliable(n, resiliencePort, host.ReliableConfig{
			InitialRTO: 40 * sim.Millisecond,
			MaxRTO:     80 * sim.Millisecond,
			MaxRetries: 5,
		})
		if err != nil {
			panic(err)
		}
		rels[i] = r
	}
	return rels
}

// armPlane attaches and starts the monitoring plane: flow-export taps on
// every attached switch input, and arrival-side accrual detectors on the
// two lowest untapped nodes, fed by heartbeat beacons between them (beacons
// never cross the injector's cable, preserving the workload discipline the
// fault families rely on). The beacons and the sampling clock stop at
// horizon. It returns the beacons so a fork can clone them.
func armPlane(tb *Testbed, horizon sim.Time) (*monitor.Plane, []*host.Heartbeat) {
	mon := monitor.NewPlane(tb.K, monitor.Config{
		SampleInterval: sim.Millisecond,
		FlowIdle:       25 * sim.Millisecond,
	})
	for p := 0; p < tb.Switch.Ports(); p++ {
		if tb.Switch.Attached(p) {
			mon.TapSwitchPort(tb.Switch, p, monitor.TapOptions{Flows: true})
		}
	}
	var beat []int
	for i := range tb.Nodes {
		if i != tb.cfg.TapNode && len(beat) < 2 {
			beat = append(beat, i)
		}
	}
	var hbs []*host.Heartbeat
	if len(beat) == 2 {
		a, b := beat[0], beat[1]
		for _, i := range beat {
			mon.TapInterface(tb.Nodes[i].Interface(), monitor.TapOptions{Detect: true})
			if _, err := tb.Nodes[i].Bind(host.HeartbeatPort, nil); err != nil {
				panic(err)
			}
		}
		hbs = []*host.Heartbeat{
			host.NewHeartbeat(tb.K, tb.Nodes[a], host.HeartbeatConfig{Dst: NodeMAC(b), Until: horizon}),
			host.NewHeartbeat(tb.K, tb.Nodes[b], host.HeartbeatConfig{Dst: NodeMAC(a), Until: horizon}),
		}
		for _, h := range hbs {
			h.Start()
		}
	}
	mon.SetStopAt(horizon)
	mon.Start()
	return mon, hbs
}

// trialRun is one trial in flight: the world, its armed plane, the first
// fault onset, and the counters the world carried in (a fork inherits its
// warmup's; a fresh testbed starts at zero).
type trialRun struct {
	tb    *Testbed
	mon   *monitor.Plane
	start sim.Time // onsets are reported relative to it

	faultAt   sim.Time
	faultSeen bool

	recovery0, flows0, injections0 uint64
}

// startTrial adds the loss, recovery and wedge probes to the plane, makes
// the injector's first fire mark the fault onset, and snapshots the
// inherited counters. Probes and hooks are campaign-owned and never cloned,
// so a fork calls this after the cut.
func startTrial(tb *Testbed, mon *monitor.Plane) *trialRun {
	t := &trialRun{tb: tb, mon: mon, start: tb.K.Now()}
	mon.AddLossProbe("net.drops", tb.Drops)
	mon.AddCounterProbe("net.recovery", "recovery", tb.RecoveryEvents)
	mon.AddWedgeProbe("sw0.held", tb.Switch.HeldOutputs)
	tb.Injector.Engine(DirOutbound).SetInjectionHook(t.mark)
	tb.Injector.Engine(DirInbound).SetInjectionHook(t.mark)
	t.recovery0 = tb.RecoveryEvents()
	t.flows0 = mon.Ring().Exported()
	t.injections0 = tb.Injections()
	return t
}

// mark records the first fault onset; later calls are no-ops.
func (t *trialRun) mark() {
	if !t.faultSeen {
		t.faultSeen = true
		t.faultAt = t.tb.K.Now()
	}
}

// reliableProgress is the quiescence figure of merit of a reliable
// workload sent from rel.
func reliableProgress(tb *Testbed, rel *host.Reliable) func() uint64 {
	return func() uint64 {
		s := rel.Stats()
		return s.Delivered + s.Retransmits + s.GaveUp + tb.RecoveryEvents()
	}
}

// run drives the world until it quiesces. A zero wall disables the
// real-time bound.
func (t *trialRun) run(progress func() uint64, wall time.Duration) sim.QuiesceResult {
	return t.tb.K.RunUntilQuiescent(sim.QuiesceConfig{
		Progress:   progress,
		StallAfter: 300 * sim.Millisecond,
		Deadline:   3 * sim.Second,
		WallClock:  wall,
	})
}

// finish stops the plane and fills r's quiesce, counter and detection
// fields, net of what the world carried in. The workload fields and the
// outcome are the campaign's.
func (t *trialRun) finish(r *TrialResult, res sim.QuiesceResult) {
	tb, mon := t.tb, t.mon
	r.Quiesce = res.Outcome()
	r.Elapsed = res.Elapsed
	r.RecoveryEvents = tb.RecoveryEvents() - t.recovery0
	r.HeldOutputs = tb.Switch.HeldOutputs()
	r.Injections = tb.Injections() - t.injections0
	mon.Stop()
	r.FlowsExported = mon.Ring().Exported() - t.flows0
	r.InjectedAt = -1
	if t.faultSeen {
		r.InjectedAt = sim.Duration(t.faultAt - t.start)
		if e, found := mon.FirstEventAtOrAfter(t.faultAt); found {
			r.Detected = true
			r.DetectLatency = sim.Duration(e.Time - t.faultAt)
			r.DetectSource = e.Source + "/" + e.Detail
		}
	}
}
