// Command netfi regenerates every table and figure of the paper's
// evaluation from the simulated test bed:
//
//	netfi table1       FPGA synthesis results (Table 1)
//	netfi table2       injector latency measurements (Table 2)
//	netfi table4       control-symbol corruption campaign (Table 4)
//	netfi sec431       throughput-collapse narratives (§4.3.1)
//	netfi sec432       packet-type corruption (§4.3.2)
//	netfi sec433       physical-address corruption + Fig. 11 (§4.3.3)
//	netfi sec434       UDP checksum evasion (§4.3.4)
//	netfi passthrough  transparency demonstration (§3.5 / Fig. 8)
//	netfi multirule    multi-target corruption via the rule engine
//	netfi resilience   failure-recovery campaign with outcome triage
//	netfi monitor      monitoring plane: accrual detection + flow export
//	netfi chaos        snapshot/fork chaos sweep: warm one testbed, fork it
//	                   per k-failure scenario, triage every fork
//	netfi fabric       sharded multi-switch fabric: build a Clos from
//	                   -switches/-hosts, run the flood workload across
//	                   -shards parallel event kernels, report throughput
//	netfi all          everything above in order (fabric excluded — its
//	                   shape is set by its own flags, not -scale)
//
// Flags:
//
//	-seed N        simulation seed (default 1)
//	-switches N    fabric switch count (fabric only, default 16)
//	-hosts N       fabric host count (fabric only, default 64)
//	-shards N      fabric shard count (fabric only, default: one per CPU;
//	               output is byte-identical across shard counts)
//	-stats         append coordinator-efficiency stats to the fabric report:
//	               windows, exchanged deliveries, events/window, and
//	               windows per simulated second
//	-json          machine-readable output (resilience, monitor, chaos,
//	               fabric): detection-latency CDFs, per-trial triage, flow
//	               summaries, coordinator stats
//	-scale F       scale experiment durations/rounds toward the paper's full
//	               lengths (default 1.0; e.g. -scale 12 runs Table 2 with
//	               240k ping-pong rounds and §4.3.1 for a full minute)
//	-workers N     worker goroutines for campaign trials (default: one per
//	               CPU; 1 reproduces the serial runner exactly — output is
//	               byte-identical either way)
//	-cpuprofile F  write a CPU profile to F
//	-memprofile F  write a heap profile to F on exit
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"netfi/internal/campaign"
	"netfi/internal/sim"
	"netfi/internal/synth"
	"netfi/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// expOpts carries the shared experiment knobs.
type expOpts struct {
	seed    int64
	scale   float64
	workers int
	// fabric shape (netfi fabric only)
	switches int
	hosts    int
	shards   int
	stats    bool
}

func run(args []string) int {
	fs := flag.NewFlagSet("netfi", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	scale := fs.Float64("scale", 1.0, "scale experiment length toward the paper's full runs")
	workers := fs.Int("workers", campaign.DefaultWorkers(), "worker goroutines for campaign trials (1 = serial)")
	switches := fs.Int("switches", 16, "fabric switch count (fabric only)")
	hosts := fs.Int("hosts", 64, "fabric host count (fabric only)")
	shards := fs.Int("shards", campaign.DefaultWorkers(), "fabric shard count (fabric only)")
	stats := fs.Bool("stats", false, "print coordinator-efficiency stats after the run (fabric only)")
	jsonOut := fs.Bool("json", false, "machine-readable output (resilience, monitor, chaos, fabric)")
	cpuprofile := fs.String("cpuprofile", "", "write CPU profile to file")
	memprofile := fs.String("memprofile", "", "write heap profile to file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Flags are accepted on either side of the experiment name:
	// `netfi -seed 2 chaos` and `netfi fabric -switches 128` both work.
	rest := fs.Args()
	if len(rest) >= 1 {
		if err := fs.Parse(rest[1:]); err != nil {
			return 2
		}
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "netfi: -scale must be positive and finite, not %v\n", *scale)
		return 2
	}
	if len(rest) < 1 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: netfi [-seed N] [-scale F] [-workers N] [-switches N] [-hosts N] [-shards N] [-stats] [-json] [-cpuprofile F] [-memprofile F] <table1|table2|table4|sec431|sec432|sec433|sec434|passthrough|multirule|resilience|monitor|chaos|fabric|all>")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
			}
		}()
	}

	opts := expOpts{
		seed: *seed, scale: *scale, workers: *workers,
		switches: *switches, hosts: *hosts, shards: *shards,
		stats: *stats,
	}
	cmds := map[string]func(expOpts) string{
		"table1":      table1,
		"table2":      table2,
		"table4":      table4,
		"sec431":      sec431,
		"sec432":      sec432,
		"sec433":      sec433,
		"sec434":      sec434,
		"passthrough": passthrough,
		"multirule":   multirule,
		"resilience":  resilience,
		"monitor":     monitorSection,
		"chaos":       chaosSection,
	}
	name := rest[0]
	if *jsonOut {
		out, err := jsonReport(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
			return 2
		}
		fmt.Println(out)
		return 0
	}
	if name == "all" {
		order := []string{"table1", "table2", "table4", "sec431", "sec432", "sec433", "sec434", "passthrough", "multirule", "resilience", "monitor", "chaos"}
		// Sections are independent simulations, so `all` fans the sections
		// themselves out over the pool. The inner campaigns then run their
		// trials serially (workers=1) to avoid oversubscribing the CPUs;
		// each section's output is assembled whole, in order, so the
		// combined report is byte-identical to a serial run.
		sectionOpts := opts
		if opts.workers > 1 {
			sectionOpts.workers = 1
		}
		reports := campaign.RunTrials(len(order), opts.workers, func(i int) string {
			return cmds[order[i]](sectionOpts)
		})
		var b strings.Builder
		for i, n := range order {
			fmt.Fprintf(&b, "==== %s ====\n%s\n", n, reports[i])
		}
		fmt.Print(b.String())
		return 0
	}
	if name == "fabric" {
		res, err := runFabric(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
			return 2
		}
		fmt.Print(fabricReport(res, opts.stats))
		return 0
	}
	cmd, ok := cmds[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "netfi: unknown experiment %q\n", name)
		return 2
	}
	fmt.Print(cmd(opts))
	return 0
}

func table1(expOpts) string {
	return "Table 1: synthesis results of the FPGA code (structural estimate vs paper)\n" +
		synth.Table1()
}

// scaledCount is n scaled by -scale, never below 1: a count that truncated
// to 0 would select the campaign's full-length default.
func scaledCount(n float64, o expOpts) int { return max(1, int(n*o.scale)) }

// scaledDuration is n units scaled by -scale, never below one simulated
// picosecond, for the same reason.
func scaledDuration(n float64, unit sim.Duration, o expOpts) sim.Duration {
	return max(sim.Picosecond, sim.Duration(n*o.scale*float64(unit)))
}

// The section options below are shared by the text and -json reports.

func table2Options(o expOpts) campaign.Table2Options {
	return campaign.Table2Options{
		Seed:    o.seed,
		Rounds:  scaledCount(20_000, o),
		Workers: o.workers,
	}
}

func table4Options(o expOpts) campaign.Table4Options {
	return campaign.Table4Options{
		Seed:     o.seed,
		Duration: scaledDuration(1700, sim.Millisecond, o),
		Workers:  o.workers,
	}
}

func sec431Options(o expOpts) campaign.Sec431Options {
	return campaign.Sec431Options{
		Seed:     o.seed,
		Duration: scaledDuration(5, sim.Second, o),
		Workers:  o.workers,
	}
}

func passthroughOptions(o expOpts) campaign.PassThroughOptions {
	return campaign.PassThroughOptions{
		Seed:     o.seed,
		Duration: scaledDuration(2, sim.Second, o),
	}
}

func resilienceOptions(o expOpts) campaign.ResilienceOptions {
	return campaign.ResilienceOptions{
		Seed:    o.seed,
		Trials:  scaledCount(14, o),
		Workers: o.workers,
	}
}

// chaosOptions derives the sweep shape from the shared knobs: 1000 forks
// at scale 1 (the k <= 2 combination sweep), cut from one warmed base.
func chaosOptions(o expOpts) campaign.ChaosOptions {
	return campaign.ChaosOptions{
		Seed:    o.seed,
		Forks:   scaledCount(1000, o),
		MaxK:    2,
		Workers: o.workers,
	}
}

func table2(o expOpts) string {
	rows := campaign.RunTable2(table2Options(o))
	return "Table 2: latency measurements (UDP ping-pong, with/without injector)\n" +
		campaign.FormatTable2(rows)
}

func table4(o expOpts) string {
	rows := campaign.RunTable4(table4Options(o))
	return "Table 4: control symbol corruption campaign\n" +
		campaign.FormatTable4(rows)
}

func sec431(o expOpts) string {
	res := campaign.RunSec431(sec431Options(o))
	return "Section 4.3.1: throughput under flow-control corruption\n" +
		campaign.FormatSec431(res)
}

func sec432(o expOpts) string {
	return "Section 4.3.2: packet type corruption\n" +
		campaign.FormatSec432(campaign.RunSec432(campaign.Sec432Options{Seed: o.seed, Workers: o.workers}))
}

func sec433(o expOpts) string {
	return "Section 4.3.3: physical address corruption (includes Fig. 11)\n" +
		campaign.FormatSec433(campaign.RunSec433(campaign.Sec433Options{Seed: o.seed, Workers: o.workers}))
}

func sec434(o expOpts) string {
	return "Section 4.3.4: UDP address corruption / checksum evasion\n" +
		campaign.FormatSec434(campaign.RunSec434(campaign.Sec434Options{Seed: o.seed, Workers: o.workers}))
}

func multirule(o expOpts) string {
	res := campaign.RunMultiRule(campaign.MultiRuleOptions{Seed: o.seed})
	ent := synth.RuleEngineEntity(res.DFAStates, res.DFAStates*512, res.RulesArmed)
	est := ent.Estimate()
	return "Multi-target address corruption via the rule engine (one pass, one rule set)\n" +
		campaign.FormatMultiRule(res) +
		fmt.Sprintf("estimated FPGA cost of this rule set: %d gates, %d FGs, %d muxes, %d DFFs\n",
			est.Gates, est.FunctionGenerators, est.Multiplexors, est.DFlipFlops)
}

func resilience(o expOpts) string {
	res := campaign.RunResilience(resilienceOptions(o))
	return "Resilience campaign: randomized injections, recovery on vs off (same seeds)\n" +
		campaign.FormatResilience(res)
}

func chaosSection(o expOpts) string {
	res := campaign.RunChaos(chaosOptions(o))
	return "Chaos sweep: warm-once testbed forked per k-failure scenario\n" +
		campaign.FormatChaos(res)
}

// runFabric runs one sharded-fabric flood to quiescence. The topology
// shape comes from the fabric flags, not -scale: a fabric's cost grows with
// switches*hosts, which the flags express directly.
func runFabric(o expOpts) (campaign.FabricResult, error) {
	return campaign.RunFabric(campaign.FabricConfig{
		Topo: topo.Config{
			Switches: o.switches,
			Hosts:    o.hosts,
			Shards:   o.shards,
			Seed:     o.seed,
		},
	})
}

func fabricReport(res campaign.FabricResult, stats bool) string {
	out := "Sharded fabric: parallel per-core event kernels, adaptive conservative lookahead\n" +
		campaign.FormatFabric(res)
	if stats {
		out += campaign.FormatFabricStats(res)
	}
	return out
}

func monitorSection(o expOpts) string {
	res := campaign.RunMonitor(campaign.MonitorOptions{Seed: o.seed})
	return "Monitoring plane: accrual failure detection, flow export, anomaly triage\n" +
		campaign.FormatMonitor(res)
}

func passthrough(o expOpts) string {
	res := campaign.RunPassThrough(passthroughOptions(o))
	return "Section 3.5: pass-through transparency\n" +
		campaign.FormatPassThrough(res)
}
