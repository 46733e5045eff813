package campaign

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"netfi/internal/core"
	"netfi/internal/host"
	"netfi/internal/monitor"
	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// The chaos engine: warm one testbed, fork it per failure scenario. A fork
// deep-copies the entire simulation world (kernel, network, hosts,
// injector, console, monitoring plane) through sim.Mapper, so thousands of
// divergent scenarios pay for warmup exactly once. Scenarios are
// declarative ForkPlans — k faults with individual onset delays — generated
// up front from the campaign seed, applied to the fork by scheduling
// ordinary simulation events, and triaged with the monitoring plane the
// same way resilience trials are. Correctness rests on fork equivalence:
// running a plan on a fork must be byte-identical to running it on a
// freshly built, identically warmed testbed (TestForkEquivalence pins it).

// FaultKind names one chaos fault primitive.
type FaultKind string

const (
	// FaultNodeDeath kills a workstation and severs its cable: the host
	// goes silent mid-conversation, the way a crashed OS with a powered
	// NIC does not.
	FaultNodeDeath FaultKind = "node-death"
	// FaultLinkSever cuts a node's cable both ways; the host keeps
	// transmitting into the void.
	FaultLinkSever FaultKind = "link-sever"
	// FaultCorrupt arms an injection rule over the serial console — the
	// paper's fault families (GAP drops, phantom STOPs, route and CRC
	// corruption) drawn at random.
	FaultCorrupt FaultKind = "corrupt"
	// FaultWatchdogOff disables the switch's recovery watchdogs: latent
	// on its own, it turns an otherwise recoverable wedge into the
	// paper's forever-held output when combined with a second fault.
	FaultWatchdogOff FaultKind = "watchdog-off"
)

// Fault is one declarative failure: what, where, when.
type Fault struct {
	Kind FaultKind
	// Node is the target node index (node-death, link-sever).
	Node int
	// Rule is the RULE ADD console line (corrupt only).
	Rule string
	// Family names the corrupt rule's fault family (reporting only).
	Family string
	// Delay is the onset, relative to trial start.
	Delay sim.Duration
}

// String renders "kind(target)@delay".
func (f Fault) String() string {
	target := ""
	switch f.Kind {
	case FaultNodeDeath, FaultLinkSever:
		target = fmt.Sprintf("node%d", f.Node)
	case FaultCorrupt:
		target = f.Family
	case FaultWatchdogOff:
		target = "sw0"
	}
	return fmt.Sprintf("%s(%s)@%.1fms", f.Kind, target, f.Delay.Seconds()*1000)
}

// ForkPlan is one fork's failure scenario: k faults composed on one world.
type ForkPlan struct {
	ID     int
	Faults []Fault
}

// K reports the combination order (fault count).
func (p ForkPlan) K() int { return len(p.Faults) }

// String joins the faults with " + ".
func (p ForkPlan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, " + ")
}

// ChaosTrial is one fork's run and triage. InjectedAt is the first fault's
// observable onset.
type ChaosTrial struct {
	ID   int
	Plan string
	K    int
	TrialResult

	// Err carries a panic surfaced by the worker pool's fault isolation;
	// Outcome is OutcomeError and every other field is zero.
	Err string

	// Fingerprint is the full-world digest the fork-equivalence gate
	// compares (counters, event log, flow records, kernel clock).
	Fingerprint string
}

// ChaosOptions parameterizes a sweep.
type ChaosOptions struct {
	Seed int64
	// Forks is the scenario count. Zero selects 64.
	Forks int
	// MaxK caps faults per fork; plans cycle k = 1..MaxK. Zero selects
	// 2 (singles and pairs); 3 adds triples.
	MaxK int
	// Messages is the reliable workload size per fork. Zero selects 6.
	Messages int
	// Gap paces the messages. Zero selects 10 ms.
	Gap sim.Duration
	// Workers sizes the fork worker pool; <= 1 is serial.
	Workers int
	// WallClock, when nonzero, bounds each fork in real time — the
	// escape hatch that keeps one livelocked fork from wedging a sweep.
	WallClock time.Duration
	// ArmedRules pre-arms a small multi-rule trigger program on the
	// injector before warmup, so every fork is cut from a world with live
	// rule-engine state — match counters, capture events, and the compiled
	// prefilter driving the batch wake table — and the equivalence gate
	// proves that state clones exactly.
	ArmedRules bool
}

func (o *ChaosOptions) fillDefaults() {
	if o.Forks == 0 {
		o.Forks = 64
	}
	if o.MaxK == 0 {
		o.MaxK = 2
	}
	if o.MaxK > 3 {
		o.MaxK = 3
	}
	if o.Messages < 3 {
		o.Messages = 6
	}
	if o.Gap == 0 {
		o.Gap = 10 * sim.Millisecond
	}
}

// chaosNodes is the testbed size (the paper's Fig. 10 bed).
const chaosNodes = 3

// chaosWarm is the shared warmup: long enough for the accrual detectors to
// calibrate on a full inter-arrival window (75 heartbeat samples at 2 ms),
// RTT estimators to converge, flow caches to populate, and the warm
// traffic's acks to drain, so the fork point has no closure-form events
// pending. A sweep pays this once; every fork inherits the history free —
// which is the engine's entire advantage over rebuilding per scenario.
const chaosWarm = 150 * sim.Millisecond

// GenerateForkPlans derives the sweep's scenarios from the seed alone:
// plan i carries k = 1 + i mod MaxK faults, each with kind, target, and
// onset drawn from one serial RNG, so a sweep is reproducible from
// (Seed, Forks, MaxK) and any plan can be rerun in isolation.
func GenerateForkPlans(opts ChaosOptions) []ForkPlan {
	opts.fillDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	span := sim.Duration(opts.Messages-1) * opts.Gap
	kinds := []FaultKind{FaultCorrupt, FaultNodeDeath, FaultLinkSever, FaultCorrupt, FaultWatchdogOff}
	plans := make([]ForkPlan, opts.Forks)
	for i := range plans {
		k := 1 + i%opts.MaxK
		faults := make([]Fault, k)
		for j := range faults {
			f := Fault{
				Kind:  kinds[rng.Intn(len(kinds))],
				Delay: sim.Duration(rng.Int63n(int64(span))),
			}
			switch f.Kind {
			case FaultNodeDeath, FaultLinkSever:
				f.Node = rng.Intn(chaosNodes)
			case FaultCorrupt:
				fam := faultFamilies[rng.Intn(len(faultFamilies))]
				f.Family = fam.name
				f.Rule = fam.build(rng, chaosNodes).cmd
			}
			faults[j] = f
		}
		plans[i] = ForkPlan{ID: i, Faults: faults}
	}
	return plans
}

// chaosBase is the warmed world forks are cut from. After newChaosBase the
// kernel is paused at the fork point with only trampoline-form events
// pending, so Clone never trips the closure-discipline check.
type chaosBase struct {
	tb   *Testbed
	mon  *monitor.Plane
	rels []*host.Reliable
	hbs  []*host.Heartbeat
}

// newChaosBase builds and warms one testbed: recovery armed, injector
// direction configured, reliable endpoints on every node, flow-export taps
// on every attached switch port, accrual detectors fed by heartbeats
// between the untapped nodes, and a little primed traffic so RTT
// estimators, flow caches, and detector windows all carry history into
// every fork.
func newChaosBase(seed int64, opts ChaosOptions) *chaosBase {
	opts.fillDefaults()
	tb := NewTestbed(TestbedConfig{Seed: seed, Recovery: trialRecovery})
	tb.Configure("DIR L")
	if opts.ArmedRules {
		// Pre-armed rules: the ONCE toggle corrupts one warm payload byte
		// (the reliable layer retransmits, so warmup still drains) and
		// leaves an injection plus a completed capture in the base; the
		// contiguous CAP pair fires on every payload run and compiles a
		// prefilter; the gapped rule keeps partial-match lanes live; the
		// last never fires. Every fork then inherits live executor,
		// capture-ring, and batch-plan state.
		tb.Configure(
			"RULE ADD 60 MODE ONCE ACT TOGGLE PAT 55 55 VEC -- 01",
			"RULE ADD 61 ACT CAP PAT 55 55",
			"RULE ADD 62 ACT CAP PAT 55 G2 7E",
			"RULE ADD 63 ACT CAP PAT 3A 3B",
		)
	}
	rels := newEndpoints(tb)

	span := sim.Duration(opts.Messages-1) * opts.Gap
	horizon := tb.K.Now() + sim.Time(chaosWarm+span+opts.Gap+80*sim.Millisecond)
	mon, hbs := armPlane(tb, horizon)

	// Warm traffic: one message from the tapped node to each peer, fully
	// drained, so every fork starts with calibrated RTTs and warm caches.
	payload := trialPayload()
	for i := 1; i < len(tb.Nodes); i++ {
		rels[0].Send(NodeMAC(i), payload)
	}
	tb.K.RunFor(chaosWarm)

	return &chaosBase{tb: tb, mon: mon, rels: rels, hbs: hbs}
}

// fork deep-copies the base into an independent world: phase 1 clones the
// kernel, phase 2 walks the model graph, phase 3 resolves every deferred
// cross-reference. Campaign-owned hooks (probes, injection hooks) are not
// part of any world and are re-armed by runChaosTrial.
func (b *chaosBase) fork() (*chaosBase, error) {
	m := sim.NewMapper()
	b.tb.K.Clone(m)
	tb2 := b.tb.Clone(m)
	mon2 := b.mon.Clone(m)
	rels2 := make([]*host.Reliable, len(b.rels))
	for i, r := range b.rels {
		rels2[i] = r.Clone(m)
	}
	hbs2 := make([]*host.Heartbeat, len(b.hbs))
	for i, h := range b.hbs {
		hbs2[i] = h.Clone(m)
	}
	if err := m.Finish(); err != nil {
		return nil, err
	}
	return &chaosBase{tb: tb2, mon: mon2, rels: rels2, hbs: hbs2}, nil
}

// runChaosTrial applies one plan to a ready world (a fork, or a freshly
// warmed base — the equivalence gate demands the two be indistinguishable)
// and triages the outcome. Probes and injection hooks are armed here, on
// whichever world runs, so both paths arm them exactly once.
func runChaosTrial(b *chaosBase, plan ForkPlan, opts ChaosOptions) ChaosTrial {
	opts.fillDefaults()
	tb, rel := b.tb, b.rels[0]
	tr := ChaosTrial{ID: plan.ID, Plan: plan.String(), K: plan.K()}
	tr.Sent = opts.Messages

	// First observable fault onset: node deaths and severs mark at their
	// scheduled instant, corrupt rules when the injector actually fires.
	run := startTrial(tb, b.mon)
	// Baseline: forks inherit the warm phase's transport counters.
	rel0 := rel.Stats()

	for _, f := range plan.Faults {
		switch f.Kind {
		case FaultNodeDeath:
			node := tb.Nodes[f.Node]
			cable := tb.Net.Cables[node.Name()]
			tb.K.After(f.Delay, func() {
				node.Kill()
				cable.Sever()
				run.mark()
			})
		case FaultLinkSever:
			cable := tb.Net.Cables[tb.Nodes[f.Node].Name()]
			tb.K.After(f.Delay, func() {
				cable.Sever()
				run.mark()
			})
		case FaultWatchdogOff:
			tb.K.After(f.Delay, func() {
				tb.Switch.SetRecovery(myrinet.RecoveryConfig{})
			})
		case FaultCorrupt:
			rule := f.Rule
			tb.K.After(f.Delay, func() { tb.Console.Send(rule) })
		}
	}

	payload := trialPayload()
	for i := 0; i < opts.Messages; i++ {
		dst := NodeMAC(1 + i%(chaosNodes-1))
		tb.K.After(sim.Duration(i)*opts.Gap, func() { rel.Send(dst, payload) })
	}

	res := run.run(reliableProgress(tb, rel), opts.WallClock)
	run.finish(&tr.TrialResult, res)

	s := rel.Stats()
	accepted := s.Sent - rel0.Sent
	tr.Delivered = s.Delivered - rel0.Delivered
	tr.Retransmits = s.Retransmits - rel0.Retransmits
	tr.GaveUp = s.GaveUp - rel0.GaveUp
	switch {
	case res.WallClockHit:
		tr.Outcome = OutcomeWallClock
	case rel.Outstanding() > 0 || tr.Delivered+tr.GaveUp < accepted:
		// Accepted traffic neither delivered nor abandoned: a wedge.
		tr.Outcome = OutcomeHung
	case tr.HeldOutputs > 0:
		// Drained, but a switch output is still owned — §4.3.1's
		// forever-held path (a disabled watchdog let it stand).
		tr.Outcome = OutcomeHung
	case tr.Delivered == uint64(tr.Sent):
		tr.Outcome = tr.deliveredAll()
	default:
		// Messages lost for good: abandoned by the transport or never
		// sent because their sender died.
		tr.Outcome = OutcomeDegraded
	}
	tr.Fingerprint = chaosFingerprint(tb, b.mon, b.rels)
	return tr
}

// runForkChaosTrial cuts a fork from the warmed base and runs the plan on
// it. The base is read-only during the clone, so forks cut concurrently.
func runForkChaosTrial(base *chaosBase, plan ForkPlan, opts ChaosOptions) ChaosTrial {
	fork, err := base.fork()
	if err != nil {
		panic(fmt.Sprintf("chaos: fork %d: %v", plan.ID, err))
	}
	return runChaosTrial(fork, plan, opts)
}

// runRebuiltChaosTrial is the control path the fork-equivalence gate
// compares against: warm a fresh world from scratch and run the same plan.
// Fork equivalence demands its result be byte-identical to
// runForkChaosTrial's.
func runRebuiltChaosTrial(seed int64, plan ForkPlan, opts ChaosOptions) ChaosTrial {
	return runChaosTrial(newChaosBase(seed, opts), plan, opts)
}

// ChaosResult is one sweep's full record.
type ChaosResult struct {
	Seed   int64
	Forks  int
	MaxK   int
	Trials []ChaosTrial
}

// RunChaos warms one base testbed, forks it per generated plan across the
// worker pool, and triages every fork. A panicking fork is isolated by
// RunTrialsErr and reported as OutcomeError rather than killing the sweep.
func RunChaos(opts ChaosOptions) ChaosResult {
	opts.fillDefaults()
	plans := GenerateForkPlans(opts)
	base := newChaosBase(opts.Seed, opts)
	trials, errs := RunTrialsErr(len(plans), opts.Workers, func(i int) ChaosTrial {
		return runForkChaosTrial(base, plans[i], opts)
	})
	for i, err := range errs {
		if err != nil {
			trials[i] = ChaosTrial{
				ID:          plans[i].ID,
				Plan:        plans[i].String(),
				K:           plans[i].K(),
				TrialResult: TrialResult{Outcome: OutcomeError, InjectedAt: -1},
				Err:         err.Error(),
			}
		}
	}
	return ChaosResult{Seed: opts.Seed, Forks: opts.Forks, MaxK: opts.MaxK, Trials: trials}
}

// ComputeChaosDetection tallies the sweep's detection axis.
func ComputeChaosDetection(trials []ChaosTrial) DetectionStats { return ComputeDetection(trials) }

// chaosTrialLines caps the per-fork detail a sweep report prints; beyond
// it only the aggregates follow (a 10k-fork sweep is not a line printer).
const chaosTrialLines = 24

// FormatChaos renders the sweep: per-fork lines (capped), per-class and
// per-k tallies, and the detection-latency CDF in deciles.
func FormatChaos(r ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos sweep: %d forks from one warmed base (k <= %d, seed %d)\n",
		len(r.Trials), r.MaxK, r.Seed)
	for i, t := range r.Trials {
		if i == chaosTrialLines {
			fmt.Fprintf(&b, "  ... %d more forks\n", len(r.Trials)-chaosTrialLines)
			break
		}
		if t.Err != "" {
			fmt.Fprintf(&b, "  fork %4d  k=%d %-15s %s\n", t.ID, t.K, t.Outcome, t.Err)
			continue
		}
		fmt.Fprintf(&b, "  fork %4d  k=%d %-15s %s  %s\n", t.ID, t.K, t.Outcome, t.summary(), t.Plan)
	}
	writeTally(&b, "tally", CountOutcomes(r.Trials))
	perK := make(map[int]map[TrialOutcome]int)
	for _, t := range r.Trials {
		if perK[t.K] == nil {
			perK[t.K] = make(map[TrialOutcome]int)
		}
		perK[t.K][t.Outcome]++
	}
	for k := 1; k <= r.MaxK; k++ {
		if perK[k] != nil {
			writeTally(&b, fmt.Sprintf("k=%d", k), perK[k])
		}
	}
	det := ComputeDetection(r.Trials)
	fmt.Fprintf(&b, "  detect: %s\n", det.coverage())
	if len(det.Latencies) > 0 {
		for _, q := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
			fmt.Fprintf(&b, "  cdf    %7.1f ms  p=%.1f\n",
				det.Quantile(q).Seconds()*1000, q)
		}
	}
	return b.String()
}

// chaosFingerprint digests the world after a trial: kernel clock and event
// count, every STAT counter on every port, interface, and engine, link
// totals, transport statistics, and the monitoring plane's complete event
// log, flow records, and tap totals. Two runs with equal fingerprints
// executed the same events in the same order against the same state — the
// byte-identity the fork-equivalence gate compares.
func chaosFingerprint(tb *Testbed, mon *monitor.Plane, rels []*host.Reliable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel now=%d processed=%d\n", tb.K.Now(), tb.K.Processed())
	writeSwitch(&b, tb.Switch)
	for _, n := range tb.Nodes {
		writeCounters(&b, n.Name(), n.Interface().Counters())
		fmt.Fprintf(&b, "%s stats=%+v dead=%v\n", n.Name(), n.Stats(), n.Dead())
	}
	if tb.Injector != nil {
		for _, dir := range []struct {
			name string
			d    core.Direction
		}{{"out", DirOutbound}, {"in", DirInbound}} {
			e := tb.Injector.Engine(dir.d)
			chars, matches, injections := e.Stats()
			fmt.Fprintf(&b, "inj.%s chars=%d matches=%d injections=%d resets=%d captures=%d dropped=%d\n",
				dir.name, chars, matches, injections, e.ResetsSeen(),
				len(e.Capture().Events()), e.Capture().DroppedEvents())
			for _, r := range e.Rules() {
				rm, rf, _ := e.RuleCounters(r.ID)
				fmt.Fprintf(&b, "inj.%s rule%d matches=%d fires=%d\n", dir.name, r.ID, rm, rf)
			}
		}
	}
	names := make([]string, 0, len(tb.Net.Cables))
	for name := range tb.Net.Cables {
		names = append(names, name)
	}
	sort.Strings(names)
	cables := make([]*phy.Cable, len(names))
	for i, name := range names {
		cables[i] = tb.Net.Cables[name]
	}
	writeCables(&b, cables)
	for i, r := range rels {
		fmt.Fprintf(&b, "rel%d %+v outstanding=%d\n", i, r.Stats(), r.Outstanding())
	}
	fmt.Fprintf(&b, "mon ticks=%d overflow=%d exported=%d dropped=%d\n",
		mon.Ticks(), mon.EventOverflow(), mon.Ring().Exported(), mon.Ring().Dropped())
	for _, e := range mon.Events() {
		fmt.Fprintf(&b, "event %v\n", e)
	}
	writeFlows(&b, mon.Ring().Records())
	for _, t := range mon.Taps() {
		bursts, chars, packets, control := t.Stats()
		fmt.Fprintf(&b, "tap %s bursts=%d chars=%d data=%d other=%d\n",
			t.Name(), bursts, chars, packets, control)
	}
	return b.String()
}
