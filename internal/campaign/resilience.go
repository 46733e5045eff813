package campaign

import (
	"fmt"
	"math/rand"
	"strings"

	"netfi/internal/host"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// ResilienceTrial records one randomized injection and its triage.
type ResilienceTrial struct {
	ID      int
	Family  string
	Command string       // the RULE ADD line armed over the serial console
	ArmAt   sim.Duration // when the line was queued, relative to traffic start
	TrialResult
	// ResetsOnWire is the injector's RESET-symbol observation (the figure
	// STAT reports as resets=), both directions summed.
	ResetsOnWire uint64
}

// ResilienceResult pairs the recovery-on sweep with its recovery-off rerun
// on the same seeds.
type ResilienceResult struct {
	Trials   []ResilienceTrial // recovery layer enabled
	Baseline []ResilienceTrial // recovery disabled: the paper's hardware
}

// ResilienceOptions parameterizes the campaign.
type ResilienceOptions struct {
	Seed int64
	// Trials per sweep. Zero selects 14 (each fault family twice).
	Trials int
	// Messages sent by the tapped node per trial. Zero selects 6;
	// minimum 3 (the tail-fault family needs a penultimate message).
	Messages int
	// Gap paces the messages. Zero selects 10 ms — wide enough that a
	// serially-armed rule lands between two specific packets.
	Gap sim.Duration
	// Workers runs trials on a worker pool; <= 1 is serial. Results are
	// identical either way (each trial is a self-contained simulation).
	Workers int
}

func (o *ResilienceOptions) fillDefaults() {
	if o.Trials == 0 {
		o.Trials = 2 * len(faultFamilies)
	}
	if o.Messages < 3 {
		o.Messages = 6
	}
	if o.Gap == 0 {
		o.Gap = 10 * sim.Millisecond
	}
}

// resilienceRuleID is the rule slot every trial arms (one rule per trial;
// the testbed is rebuilt from scratch between trials).
const resilienceRuleID = 70

// faultPlan is one trial's randomized injection, fixed before any traffic so
// the recovery-on and recovery-off runs of the same seed see the same fault.
type faultPlan struct {
	cmd  string
	tail bool // arm between the penultimate and final message
}

// faultFamilies spans the ISSUE's sweep axes: control symbols, GAPs, route
// bytes, and CRC integrity. Each builder may draw from rng; the draw count
// per family is what keeps a seed's plan identical across reruns.
var faultFamilies = []struct {
	name  string
	build func(rng *rand.Rand, nodes int) faultPlan
}{
	{"go-drop", func(rng *rand.Rand, nodes int) faultPlan {
		// A lost GO is the benign end of the spectrum: the short-period
		// timeout acts as GO ~200 ns later (§4.3.1).
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT DROP PAT C03", resilienceRuleID)}
	}},
	{"gap-drop", func(rng *rand.Rand, nodes int) faultPlan {
		// A packet-terminating GAP vanishes mid-stream; the next train
		// merges into it and dies on the destination's CRC check.
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT DROP PAT C0C", resilienceRuleID)}
	}},
	{"gap-drop-tail", func(rng *rand.Rand, nodes int) faultPlan {
		// The same fault on the final packet: no later train ever
		// terminates the merged stream — the paper's wedge.
		return faultPlan{tail: true, cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT DROP PAT C0C", resilienceRuleID)}
	}},
	{"gap-to-stop", func(rng *rand.Rand, nodes int) faultPlan {
		// "Erroneous flow control symbols" (§4.3.1): the terminator
		// becomes a phantom STOP, unframing the train and pausing the
		// reverse path at once.
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT REPLACE PAT C0C VEC C0F", resilienceRuleID)}
	}},
	{"route-toggle", func(rng *rand.Rand, nodes int) faultPlan {
		// §4.3.2 source-route corruption: flip low bits of a switch hop
		// so the packet exits a wrong (possibly unattached) port. The
		// MSB stays set — the hop still addresses the switch.
		target := 1 + rng.Intn(nodes-1)
		vec := 1 + rng.Intn(7)
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT TOGGLE PAT %02X VEC %02X",
			resilienceRuleID, myrinet.SwitchHop(target), vec)}
	}},
	{"crc-stale", func(rng *rand.Rand, nodes int) faultPlan {
		// Payload corruption with the CRC left stale: the link delivers
		// the packet, the destination's CRC-8 check rejects it.
		vec := 1 + rng.Intn(255)
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT TOGGLE PAT %02X VEC %02X",
			resilienceRuleID, resiliencePayloadFill, vec)}
	}},
	{"truncate", func(rng *rand.Rand, nodes int) faultPlan {
		// Delete a run of payload characters: the shortened packet fails
		// length and CRC checks downstream.
		k := 2 + rng.Intn(6)
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT DROP:%d PAT %02X",
			resilienceRuleID, k, resiliencePayloadFill)}
	}},
}

// resiliencePayloadFill is the message body byte. 0x55 is clear of every
// control-symbol code, the MAC bytes, and the transport header, so the
// payload-pattern families fire inside the payload proper.
const resiliencePayloadFill = 0x55

const resiliencePayloadLen = 20 // > max truncate run, so framing survives

const resiliencePort = 7000

// runResilienceTrial executes one fault injection against a fresh testbed.
// With recovery enabled the workload is the reliable transport; disabled, it
// is plain UDP — the paper's stack, which loses or wedges instead.
func runResilienceTrial(seed int64, trial int, opts ResilienceOptions, recovery bool) ResilienceTrial {
	rc := myrinet.RecoveryConfig{}
	if recovery {
		rc = trialRecovery
	}
	tb := NewTestbed(TestbedConfig{Seed: seed, Recovery: rc})
	nodes := len(tb.Nodes)

	// Fix the fault before any other randomness so recovery-on and -off
	// runs of one seed inject identically.
	fam := faultFamilies[trial%len(faultFamilies)]
	plan := fam.build(tb.K.Rand(), nodes)
	armSpan := sim.Duration(opts.Messages-2) * opts.Gap
	var armAt sim.Duration
	if plan.tail {
		// Land after the penultimate GAP but before the final message:
		// the serial line itself takes ~87 us per byte to decode.
		armAt = armSpan + 3*sim.Millisecond
	} else {
		armAt = sim.Duration(tb.K.Rand().Int63n(int64(armSpan)))
	}

	tb.Configure("DIR L")
	cmd := plan.cmd
	tb.K.After(armAt, func() { tb.Console.Send(cmd) })

	tr := ResilienceTrial{ID: trial, Family: fam.name, Command: cmd, ArmAt: armAt}
	tr.Sent = opts.Messages

	// Arm the monitoring plane at traffic start. The heartbeat beacons and
	// the sampling clock both end at a horizon comfortably past the last
	// workload message and every recovery watchdog, so the detectors cover
	// the whole fault window yet the event queue still drains in healthy
	// trials (and end-of-workload silence is never mistaken for failure).
	horizon := tb.K.Now() + sim.Time(armSpan+opts.Gap+60*sim.Millisecond)
	mon, _ := armPlane(tb, horizon)
	run := startTrial(tb, mon)

	payload := trialPayload()
	var progress func() uint64
	var rel *host.Reliable
	received := 0
	if recovery {
		rel = newEndpoints(tb)[0]
		for i := 0; i < opts.Messages; i++ {
			dst := NodeMAC(1 + i%(nodes-1))
			tb.K.After(sim.Duration(i)*opts.Gap, func() { rel.Send(dst, payload) })
		}
		progress = reliableProgress(tb, rel)
	} else {
		for _, n := range tb.Nodes {
			if _, err := n.Bind(resiliencePort, func(myrinet.MAC, uint16, []byte) {
				received++
			}); err != nil {
				panic(err)
			}
		}
		tap := tb.TapNode()
		for i := 0; i < opts.Messages; i++ {
			dst := NodeMAC(1 + i%(nodes-1))
			tb.K.After(sim.Duration(i)*opts.Gap, func() {
				tap.SendUDP(dst, resiliencePort, resiliencePort, payload)
			})
		}
		progress = func() uint64 {
			n := uint64(received)
			for p := 0; p < tb.Switch.Ports(); p++ {
				n += tb.Switch.PortCounters(p).PacketsForwarded
			}
			return n
		}
	}

	res := run.run(progress, 0)
	run.finish(&tr.TrialResult, res)
	tr.ResetsOnWire = tb.Injector.Engine(DirOutbound).ResetsSeen() +
		tb.Injector.Engine(DirInbound).ResetsSeen()

	if recovery {
		s := rel.Stats()
		tr.Delivered = s.Delivered
		tr.Retransmits = s.Retransmits
		tr.GaveUp = s.GaveUp
		switch {
		case res.Stalled || res.DeadlineHit || rel.Outstanding() > 0:
			tr.Outcome = OutcomeHung
		case s.Delivered == uint64(tr.Sent):
			tr.Outcome = tr.deliveredAll()
		default:
			tr.Outcome = OutcomeDegraded
		}
		return tr
	}

	tr.Delivered = uint64(received)
	switch {
	case res.Stalled || res.DeadlineHit:
		tr.Outcome = OutcomeHung
	case tr.HeldOutputs > 0:
		// The network drained but a switch output is still owned: the
		// §4.3.1 wedge, waiting for a GAP that will never come.
		tr.Outcome = OutcomeHung
	case received == tr.Sent:
		tr.Outcome = OutcomeMasked
	default:
		tr.Outcome = OutcomeDropped
	}
	return tr
}

// RunResilience sweeps randomized injections with the recovery layer
// enabled, then reruns the identical faults (same seeds, same plans) with
// recovery disabled to reproduce the paper's failure modes side by side.
func RunResilience(opts ResilienceOptions) ResilienceResult {
	opts.fillDefaults()
	type pair struct{ on, off ResilienceTrial }
	pairs := RunTrials(opts.Trials, opts.Workers, func(t int) pair {
		seed := opts.Seed + int64(t)*7919
		return pair{
			on:  runResilienceTrial(seed, t, opts, true),
			off: runResilienceTrial(seed, t, opts, false),
		}
	})
	var res ResilienceResult
	for _, p := range pairs {
		res.Trials = append(res.Trials, p.on)
		res.Baseline = append(res.Baseline, p.off)
	}
	return res
}

// FormatDetectionCDF renders the full detection-latency CDF, one step per
// detected trial.
func FormatDetectionCDF(s DetectionStats) string {
	var b strings.Builder
	for i, lat := range s.Latencies {
		fmt.Fprintf(&b, "  cdf    %7.1f ms  p=%.2f\n",
			lat.Seconds()*1000, float64(i+1)/float64(len(s.Latencies)))
	}
	return b.String()
}

// FormatResilience renders both sweeps, their tallies, and the detection
// axis the monitoring plane adds.
func FormatResilience(r ResilienceResult) string {
	var b strings.Builder
	render := func(title string, trials []ResilienceTrial) {
		fmt.Fprintf(&b, "%s\n", title)
		for _, t := range trials {
			fmt.Fprintf(&b, "  trial %2d  %-14s %-15s %s\n", t.ID, t.Family, t.Outcome, t.summary())
		}
		writeTally(&b, "tally", CountOutcomes(trials))
		det := ComputeDetection(trials)
		fmt.Fprintf(&b, "  detect: %s, p50=%.1fms p90=%.1fms max=%.1fms\n", det.coverage(),
			det.Quantile(0.5).Seconds()*1000, det.Quantile(0.9).Seconds()*1000,
			det.Quantile(1).Seconds()*1000)
		b.WriteString(FormatDetectionCDF(det))
	}
	render("recovery enabled:", r.Trials)
	render("recovery disabled (paper hardware):", r.Baseline)
	return b.String()
}
