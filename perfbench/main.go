// Command perfbench is netfi's benchmark. One invocation runs one workload
// for a fixed measuring time, checks the program's outputs, and prints as
// its last line a JSON result with every metric and its unit:
//
//	perfbench -workload fabric-flood -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it makes a
// separate traced run (spans, runtime/metrics deltas, a CPU profile folded
// by layer) and reports the per-layer metrics instead. run.sh in this
// directory builds it and the netfi CLI from source and runs it from the
// repository root. README.md says why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sizes are the workload dimensions. The benchmark's are defaultSizes; the
// smoke tests shrink them.
type sizes struct {
	Switches, Hosts, Packets int     // fabric-*: Clos shape, packets per host
	Scale                    float64 // paper-all: netfi -scale
	StreamChars, Rules       int     // injector-stream: stream length, armed rules
}

var defaultSizes = sizes{
	Switches: 128, Hosts: 1024, Packets: 60,
	Scale:       0.1,
	StreamChars: 1 << 23, Rules: 64,
}

// config is one invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Trace    bool
	Sizes    sizes
	// Netfi is the netfi CLI binary paper-all's output is checked against.
	Netfi string
	// Root is the repository root, for the source digest.
	Root string
	// Commit labels the environment record; TraceDir receives the spans.
	Commit   string
	TraceDir string
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runner) error{
	"fabric-flood":    func(r *runner) error { return runFabric(r, 1) },
	"fabric-sharded":  func(r *runner) error { return runFabric(r, 2) },
	"paper-all":       runPaper,
	"injector-stream": runInjector,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{Sizes: defaultSizes}
	fs.StringVar(&cfg.Workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	fs.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 makes a traced run reporting per-layer metrics")
	fs.StringVar(&cfg.Netfi, "netfi", "", "netfi CLI binary (paper-all's reference output)")
	fs.StringVar(&cfg.Root, "root", ".", "repository root")
	fs.StringVar(&cfg.Commit, "commit", "unknown", "commit of the measured source")
	fs.StringVar(&cfg.TraceDir, "trace-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.Workload]; !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %v, -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	cfg.Seconds = time.Duration(*seconds * float64(time.Second))
	cfg.Trace = *trace == 1

	res, env, spans, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if cfg.Trace && cfg.TraceDir != "" {
		path := filepath.Join(cfg.TraceDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := writeSpans(path, env, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", envLine, resLine)
	return 0
}

// measure runs one workload and assembles its result.
func measure(cfg config) (result, envRecord, []span, error) {
	r := newRunner(cfg)
	steal0 := stealSeconds()
	if err := workloads[cfg.Workload](r); err != nil {
		return result{}, envRecord{}, nil, err
	}
	env := newEnvRecord(cfg, stealSeconds()-steal0)
	r.layerValue("env.steal_s", env.StealS)
	res := r.result()
	var spans []span
	if r.tr != nil {
		spans = r.tr.spans
	}
	return res, env, spans, nil
}

func writeSpans(path string, env envRecord, spans []span) error {
	data, err := json.Marshal(map[string]any{"env": env, "spans": spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
