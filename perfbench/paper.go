package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"netfi/internal/campaign"
	"netfi/internal/sim"
	"netfi/internal/synth"
)

// paperSeed is the seed paper-all always runs: the CLI's default, so the
// measured work is the user's regenerate-the-paper run whatever -seed says.
const paperSeed = 1

// paperTally gathers the campaign outcomes a rep's sections report.
type paperTally struct {
	forks, forkFailures int
	resTrials           int
	retransmits, flows  uint64
	nonMasked, detected int
}

// paperSection is one section of `netfi all`: its text is built exactly as
// cmd/netfi builds it. bucket names its campaign.<bucket>_s metric.
type paperSection struct {
	name, bucket string
	run          func(scale float64, t *paperTally) string
}

var paperSections = []paperSection{
	{"table1", "other", func(float64, *paperTally) string {
		return "Table 1: synthesis results of the FPGA code (structural estimate vs paper)\n" +
			synth.Table1()
	}},
	{"table2", "table2", func(scale float64, _ *paperTally) string {
		rows := campaign.RunTable2(campaign.Table2Options{Seed: paperSeed, Rounds: int(20_000 * scale), Workers: 1})
		return "Table 2: latency measurements (UDP ping-pong, with/without injector)\n" +
			campaign.FormatTable2(rows)
	}},
	{"table4", "table4", func(scale float64, _ *paperTally) string {
		rows := campaign.RunTable4(campaign.Table4Options{
			Seed:     paperSeed,
			Duration: sim.Duration(1700 * scale * float64(sim.Millisecond)),
			Workers:  1,
		})
		return "Table 4: control symbol corruption campaign\n" + campaign.FormatTable4(rows)
	}},
	{"sec431", "sec431", func(scale float64, _ *paperTally) string {
		res := campaign.RunSec431(campaign.Sec431Options{
			Seed:     paperSeed,
			Duration: sim.Duration(5 * scale * float64(sim.Second)),
			Workers:  1,
		})
		return "Section 4.3.1: throughput under flow-control corruption\n" + campaign.FormatSec431(res)
	}},
	{"sec432", "other", func(float64, *paperTally) string {
		return "Section 4.3.2: packet type corruption\n" +
			campaign.FormatSec432(campaign.RunSec432(campaign.Sec432Options{Seed: paperSeed, Workers: 1}))
	}},
	{"sec433", "other", func(float64, *paperTally) string {
		return "Section 4.3.3: physical address corruption (includes Fig. 11)\n" +
			campaign.FormatSec433(campaign.RunSec433(campaign.Sec433Options{Seed: paperSeed, Workers: 1}))
	}},
	{"sec434", "other", func(float64, *paperTally) string {
		return "Section 4.3.4: UDP address corruption / checksum evasion\n" +
			campaign.FormatSec434(campaign.RunSec434(campaign.Sec434Options{Seed: paperSeed, Workers: 1}))
	}},
	{"passthrough", "passthrough", func(scale float64, _ *paperTally) string {
		res := campaign.RunPassThrough(campaign.PassThroughOptions{
			Seed:     paperSeed,
			Duration: sim.Duration(2 * scale * float64(sim.Second)),
		})
		return "Section 3.5: pass-through transparency\n" + campaign.FormatPassThrough(res)
	}},
	{"multirule", "other", func(float64, *paperTally) string {
		res := campaign.RunMultiRule(campaign.MultiRuleOptions{Seed: paperSeed})
		ent := synth.RuleEngineEntity(res.DFAStates, res.DFAStates*512, res.RulesArmed)
		est := ent.Estimate()
		return "Multi-target address corruption via the rule engine (one pass, one rule set)\n" +
			campaign.FormatMultiRule(res) +
			fmt.Sprintf("estimated FPGA cost of this rule set: %d gates, %d FGs, %d muxes, %d DFFs\n",
				est.Gates, est.FunctionGenerators, est.Multiplexors, est.DFlipFlops)
	}},
	{"resilience", "resilience", func(scale float64, t *paperTally) string {
		res := campaign.RunResilience(campaign.ResilienceOptions{Seed: paperSeed, Trials: int(14 * scale), Workers: 1})
		t.resTrials += len(res.Trials) + len(res.Baseline)
		for _, trials := range [][]campaign.ResilienceTrial{res.Trials, res.Baseline} {
			for _, tr := range trials {
				t.retransmits += tr.Retransmits
				t.flows += tr.FlowsExported
			}
		}
		det := campaign.ComputeDetection(res.Trials)
		t.nonMasked += det.NonMasked
		t.detected += det.DetectedNonMasked
		return "Resilience campaign: randomized injections, recovery on vs off (same seeds)\n" +
			campaign.FormatResilience(res)
	}},
	{"monitor", "other", func(float64, *paperTally) string {
		res := campaign.RunMonitor(campaign.MonitorOptions{Seed: paperSeed})
		return "Monitoring plane: accrual failure detection, flow export, anomaly triage\n" +
			campaign.FormatMonitor(res)
	}},
	{"chaos", "chaos", func(scale float64, t *paperTally) string {
		res := campaign.RunChaos(campaign.ChaosOptions{Seed: paperSeed, Forks: int(1000 * scale), MaxK: 2, Workers: 1})
		for _, tr := range res.Trials {
			t.forks++
			if tr.Outcome == campaign.OutcomeError || tr.Outcome == campaign.OutcomeWallClock {
				t.forkFailures++
			}
			t.retransmits += tr.Retransmits
			t.flows += tr.FlowsExported
		}
		det := campaign.ComputeChaosDetection(res.Trials)
		t.nonMasked += det.NonMasked
		t.detected += det.DetectedNonMasked
		return "Chaos sweep: warm-once testbed forked per k-failure scenario\n" + campaign.FormatChaos(res)
	}},
}

// paperBuckets are the campaign.<bucket>_s metrics, each summing its
// sections' wall time.
var paperBuckets = []string{"table2", "table4", "sec431", "resilience", "chaos", "passthrough", "other"}

// runSection runs one section, turning a panic into a failed section.
func runSection(s paperSection, scale float64, t *paperTally) (text string, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			text, ok = fmt.Sprintf("panic: %v\n", p), false
		}
	}()
	return s.run(scale, t), true
}

// runPaper is paper-all: every section `netfi all` runs, serially, at the
// default seed and a fixed reduced -scale. Set-up is one Fig. 10
// campaign.NewTestbed build; the measured unit is all sections.
func runPaper(r *runner) error {
	scale := r.cfg.Sizes.Scale
	// One build takes tens of microseconds, so each set-up sample times a
	// batch of builds and reports the time per build.
	const batch = 50
	for i := 0; i < 20; i++ {
		r.setupPer("campaign.NewTestbed", batch, func() {
			for j := 0; j < batch; j++ {
				campaign.NewTestbed(campaign.TestbedConfig{Seed: paperSeed})
			}
		})
	}
	if r.tr != nil {
		if err := r.paperTestbedSamples(); err != nil {
			return err
		}
	}

	var first string
	err := r.loop(func(rep int) error {
		var out strings.Builder
		var t paperTally
		failed := 0
		secs := make(map[string]float64)
		sp, err := r.unit("paper-all", func() {
			for _, s := range paperSections {
				var text string
				var ok bool
				t0 := time.Now()
				r.span("campaign."+s.name, func() { text, ok = runSection(s, scale, &t) })
				secs[s.bucket] += time.Since(t0).Seconds()
				if !ok {
					failed++
				}
				fmt.Fprintf(&out, "==== %s ====\n%s\n", s.name, text)
			}
		})
		if err != nil {
			return err
		}
		r.count(len(paperSections), failed, "rep %d: sections panicked", rep)
		r.count(t.forks, t.forkFailures, "rep %d: chaos forks triaged error or wallclock", rep)
		if rep == 0 {
			first = out.String()
		} else {
			diff := 0
			if out.String() != first {
				diff = 1
			}
			r.count(1, diff, "rep %d: report differs from rep 0's", rep)
		}
		if sp != nil {
			for _, b := range paperBuckets {
				r.sample("campaign."+b+"_s", secs[b])
			}
			if secs["chaos"] > 0 {
				r.sample("campaign.chaos_forks_per_s", float64(t.forks)/secs["chaos"])
			}
			if secs["resilience"] > 0 {
				r.sample("campaign.resilience_trials_per_s", float64(t.resTrials)/secs["resilience"])
			}
			r.sample("host.retransmits", float64(t.retransmits))
			r.sample("monitor.flows_exported", float64(t.flows))
			if t.nonMasked > 0 {
				r.sample("monitor.detected_share", float64(t.detected)/float64(t.nonMasked))
			}
			r.runtimeSamples(sp)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The report must equal the CLI's, section by section.
	want, err := netfiAll(r.cfg.Netfi, scale)
	if err != nil {
		return err
	}
	r.count(len(paperSections), diffSections(first, want), "report differs from netfi -workers 1 -scale %g all", scale)
	return nil
}

// paperTestbedSamples times testbed construction and the fork of a warmed
// bed, for campaign.testbed_build_s and campaign.testbed_clone_s.
func (r *runner) paperTestbedSamples() error {
	r.tracing = true
	defer func() { r.tracing = false }()
	var tb *campaign.Testbed
	for i := 0; i < 10; i++ {
		sp := r.span("campaign.NewTestbed", func() { tb = campaign.NewTestbed(campaign.TestbedConfig{Seed: paperSeed}) })
		r.sample("campaign.testbed_build_s", sp.Seconds())
	}
	tb.StartLoad(campaign.LoadConfig{})
	tb.K.RunFor(20 * sim.Millisecond)
	for i := 0; i < 10; i++ {
		var err error
		sp := r.span("campaign.Testbed.Clone", func() {
			m := sim.NewMapper()
			tb.K.Clone(m)
			tb.Clone(m)
			err = m.Finish()
		})
		if err != nil {
			return fmt.Errorf("cloning a warmed testbed: %w", err)
		}
		r.sample("campaign.testbed_clone_s", sp.Seconds())
	}
	return nil
}

// netfiAll runs the CLI's serial `all` at the paper seed and scale.
func netfiAll(bin string, scale float64) (string, error) {
	if bin == "" {
		return "", fmt.Errorf("paper-all needs -netfi, the CLI its report is checked against")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-workers", "1", "-seed", strconv.Itoa(paperSeed),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "all")
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("running %s: %w", bin, err)
	}
	return out.String(), nil
}

// diffSections counts the sections whose text differs between two `all`
// reports; a section missing from either counts as differing.
func diffSections(got, want string) int {
	g, w := splitSections(got), splitSections(want)
	diff := 0
	for _, s := range paperSections {
		gt, ok1 := g[s.name]
		wt, ok2 := w[s.name]
		if !ok1 || !ok2 || gt != wt {
			diff++
		}
	}
	if len(g) != len(w) && diff == 0 {
		diff = 1
	}
	return diff
}

func splitSections(report string) map[string]string {
	out := make(map[string]string)
	parts := strings.Split(report, "==== ")
	for _, p := range parts[1:] {
		name, body, _ := strings.Cut(p, " ====\n")
		out[name] = body
	}
	if parts[0] != "" {
		out[""] = parts[0]
	}
	return out
}
