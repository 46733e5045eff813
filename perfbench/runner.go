package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer name every metric the benchmark emits, with its
// unit. BENCHMARK.json lists the same names (a test keeps them equal). An
// untraced run emits exactly endToEnd, a traced run exactly perLayer; a
// per-layer metric a workload leaves untouched reads 0, because that layer
// does no work there.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.cpu_share", "ratio"},
	{"sim.windows", "count"},
	{"sim.exchanged", "count"},
	{"sim.events_per_window", "count"},
	{"sim.shard_imbalance", "ratio"},
	{"sim.idle_cpu_s", "s"},
	{"phy.chars", "count"},
	{"phy.bursts", "count"},
	{"phy.chars_per_burst", "count"},
	{"phy.cpu_share", "ratio"},
	{"myrinet.packets_forwarded", "count"},
	{"myrinet.drops", "count"},
	{"myrinet.stops_sent", "count"},
	{"myrinet.long_timeouts", "count"},
	{"myrinet.cpu_share", "ratio"},
	{"topo.build_s", "s"},
	{"topo.build_allocs", "count"},
	{"topo.cpu_share", "ratio"},
	{"core.chars", "count"},
	{"core.matches", "count"},
	{"core.injections", "count"},
	{"core.pass_mb_per_s", "MB/s"},
	{"core.cpu_share", "ratio"},
	{"rules.compile_s", "s"},
	{"rules.dfa_states", "count"},
	{"rules.fires", "count"},
	{"rules.fire_share", "ratio"},
	{"rules.armed_mb_per_s", "MB/s"},
	{"rules.cpu_share", "ratio"},
	{"campaign.fabric_msym_per_s", "Msym/s"},
	{"campaign.table2_s", "s"},
	{"campaign.table4_s", "s"},
	{"campaign.sec431_s", "s"},
	{"campaign.resilience_s", "s"},
	{"campaign.chaos_s", "s"},
	{"campaign.passthrough_s", "s"},
	{"campaign.other_s", "s"},
	{"campaign.chaos_forks_per_s", "1/s"},
	{"campaign.resilience_trials_per_s", "1/s"},
	{"campaign.testbed_build_s", "s"},
	{"campaign.testbed_clone_s", "s"},
	{"campaign.cpu_share", "ratio"},
	{"host.retransmits", "count"},
	{"host.cpu_share", "ratio"},
	{"monitor.flows_exported", "count"},
	{"monitor.detected_share", "ratio"},
	{"monitor.cpu_share", "ratio"},
	{"serial.cpu_share", "ratio"},
	{"bitstream.cpu_share", "ratio"},
	{"runtime.allocs", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs_per_packet", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.mutex_wait_s", "s"},
	{"runtime.sync_cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"other.cpu_share", "ratio"},
	{"env.steal_s", "s"},
	{"trace.overhead", "ratio"},
}

type metricDef struct{ Name, Unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one invocation's measurements. A workload's function calls
// loop to repeat its measured unit until the measuring time is spent,
// setup and unit to time set-up and the unit, span to record the calls it
// makes into netfi's layers, and count to report checked operations.
type runner struct {
	cfg config

	attempted, failed int

	setupCPU  []float64 // set-up samples, CPU s
	cpu       []float64 // bare measured units, CPU s
	rss       []float64 // peak resident MB during each bare unit
	tracedCPU []float64 // profiled measured units, CPU s

	layer map[string][]float64 // per-layer samples, one per traced rep

	tr      *tracer // nil in an untraced run
	tracing bool    // the current rep is traced
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg, layer: make(map[string][]float64)}
	if cfg.Trace {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", cfg.Workload, cfg.Seed, time.Now().UnixNano()))
	}
	return r
}

// loop calls rep until the measuring time is spent. In a traced run odd
// reps are traced and even reps run bare, so every traced run has at least
// one of each and trace.overhead compares them.
func (r *runner) loop(rep func(i int) error) error {
	minReps := 1
	if r.tr != nil {
		minReps = 2
	}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < r.cfg.Seconds; i++ {
		r.tracing = r.tr != nil && i%2 == 1
		err := rep(i)
		r.tracing = false
		if err != nil {
			return err
		}
	}
	return nil
}

// setup times one set-up call as a setup_s sample, recorded as a span when
// tracing.
func (r *runner) setup(name string, fn func()) { r.setupPer(name, 1, fn) }

// setupPer times fn, which sets up n times, as one setup_s sample: its
// process CPU seconds per set-up, from a collected heap.
func (r *runner) setupPer(name string, n int, fn func()) {
	runtime.GC()
	c0 := cpuSeconds()
	r.span(name, fn)
	r.setupCPU = append(r.setupCPU, (cpuSeconds()-c0)/float64(n))
}

// unit times one measured unit in process CPU seconds, logging its wall
// time beside them, and takes the peak resident memory during it. The unit
// starts from a collected heap with freed memory returned to the OS, so
// every unit starts from the same footprint. A traced rep runs it under the
// CPU profiler inside a span and returns that span; a bare rep returns nil.
func (r *runner) unit(name string, fn func()) (*span, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	if r.tracing {
		if err := r.tr.startProfile(); err != nil {
			return nil, err
		}
	}
	c0, t0 := cpuSeconds(), time.Now()
	sp := r.span(name, fn)
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	fmt.Fprintf(os.Stderr, "perfbench: %s cpu %.6fs wall %.6fs traced=%v\n", name, cpu, wall, r.tracing)
	if !r.tracing {
		r.cpu = append(r.cpu, cpu)
		r.rss = append(r.rss, peakRSSMB())
		return nil, nil
	}
	if err := r.tr.stopProfile(); err != nil {
		return nil, err
	}
	r.tracedCPU = append(r.tracedCPU, cpu)
	return sp, nil
}

// span runs fn, recording it as a span with runtime/metrics deltas when the
// current rep is traced.
func (r *runner) span(name string, fn func()) *span {
	if !r.tracing {
		fn()
		return nil
	}
	id := r.tr.begin(name)
	fn()
	return r.tr.end(id)
}

// count records checked operations and how many of them failed.
func (r *runner) count(attempted, failed int, format string, args ...any) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d failed: %s\n", failed, attempted, fmt.Sprintf(format, args...))
	}
}

// sample adds one per-layer sample; the reported value is the median.
func (r *runner) sample(name string, v float64) {
	r.layer[name] = append(r.layer[name], v)
}

// layerValue sets a per-layer metric measured once per run.
func (r *runner) layerValue(name string, v float64) { r.layer[name] = []float64{v} }

func (r *runner) result() result {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	if r.tr == nil {
		vals := map[string]float64{
			"setup_s":     median(r.setupCPU),
			"cpu_s":       median(r.cpu),
			"peak_rss_mb": median(r.rss),
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
		}
		return res
	}
	for name, share := range r.tr.fold.shares() {
		r.layerValue(name, share)
	}
	if base := median(r.cpu); base > 0 {
		r.layerValue("trace.overhead", median(r.tracedCPU)/base-1)
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{median(r.layer[d.Name]), d.Unit}
	}
	return res
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds is the process's user plus system CPU time. Unlike wall time it
// excludes time a hypervisor steals from the guest.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS restarts the kernel's peak resident memory count (VmHWM)
// from the current resident size. Where that is not allowed, peakRSSMB
// keeps reporting the peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident memory in MiB since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ---- tracing ----

// span is one call from the benchmark into a netfi layer. Delta holds the
// runtime/metrics differences across it.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0: none
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"` // since the run began
	End    float64            `json:"end_s"`
	Delta  map[string]float64 `json:"delta"`
	before []float64
}

// Seconds is the span's duration.
func (s *span) Seconds() float64 { return s.End - s.Start }

// spanMetrics are the runtime/metrics read at each span boundary.
var spanMetrics = []struct{ key, name string }{
	{"allocs", "/gc/heap/allocs:objects"},
	{"alloc_bytes", "/gc/heap/allocs:bytes"},
	{"gc_cycles", "/gc/cycles/total:gc-cycles"},
	{"gc_cpu_s", "/cpu/classes/gc/total:cpu-seconds"},
	{"idle_cpu_s", "/cpu/classes/idle:cpu-seconds"},
	{"mutex_wait_s", "/sync/mutex/wait/total:seconds"},
}

// tracer keeps a traced run's spans in memory and folds its CPU profiles.
type tracer struct {
	run     string
	t0      time.Time
	spans   []span
	open    []int // indexes of open spans, innermost last
	samples []metrics.Sample
	prof    bytes.Buffer
	fold    fold
}

func newTracer(run string) *tracer {
	t := &tracer{run: run, t0: time.Now(), fold: newFold()}
	for _, m := range spanMetrics {
		t.samples = append(t.samples, metrics.Sample{Name: m.name})
	}
	return t
}

// read returns the current runtime counters, GC pause time last.
func (t *tracer) read() []float64 {
	metrics.Read(t.samples)
	vals := make([]float64, 0, len(t.samples)+1)
	for _, s := range t.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			vals = append(vals, float64(s.Value.Uint64()))
		case metrics.KindFloat64:
			vals = append(vals, s.Value.Float64())
		default:
			vals = append(vals, 0)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return append(vals, float64(ms.PauseTotalNs)/1e9)
}

func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	t.spans[idx].before = t.read()
	t.spans[idx].Start = time.Since(t.t0).Seconds() // after the read, so it is not timed
	return idx
}

func (t *tracer) end(idx int) *span {
	end := time.Since(t.t0).Seconds()
	after := t.read()
	s := &t.spans[idx]
	s.End = end
	s.Delta = make(map[string]float64, len(after))
	for i, m := range spanMetrics {
		s.Delta[m.key] = after[i] - s.before[i]
	}
	s.Delta["gc_pause_s"] = after[len(after)-1] - s.before[len(after)-1]
	s.before = nil
	t.open = t.open[:len(t.open)-1]
	cp := *s // t.spans may grow and move before the caller reads it
	return &cp
}

func (t *tracer) startProfile() error {
	t.prof.Reset()
	return pprof.StartCPUProfile(&t.prof)
}

func (t *tracer) stopProfile() error {
	pprof.StopCPUProfile()
	return t.fold.add(t.prof.Bytes())
}

// runtimeSamples adds the Go runtime's per-layer samples from a measured
// unit's span.
func (r *runner) runtimeSamples(sp *span) {
	r.sample("runtime.allocs", sp.Delta["allocs"])
	r.sample("runtime.alloc_mb", sp.Delta["alloc_bytes"]/1e6)
	r.sample("runtime.gc_cycles", sp.Delta["gc_cycles"])
	r.sample("runtime.gc_cpu_s", sp.Delta["gc_cpu_s"])
	r.sample("runtime.gc_pause_s", sp.Delta["gc_pause_s"])
	r.sample("runtime.mutex_wait_s", sp.Delta["mutex_wait_s"])
}
