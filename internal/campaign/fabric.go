package campaign

import (
	"fmt"
	"strings"
	"time"

	"netfi/internal/monitor"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
	"netfi/internal/topo"
)

// Fabric campaigns: workloads over the sharded multi-switch topologies of
// internal/topo. Unlike the paper-scale Testbed (one switch, a handful of
// hosts, host.Node stacks), the fabric testbed drives the interfaces
// directly with scheduled sends — the point is datapath and coordinator
// throughput at hundreds of switches, not OS overhead modeling. Every
// source of nondeterminism is counter-based: destinations and payloads hash
// from (seed, host, packet), never from kernel randomness, so a fabric run
// is a pure function of its config regardless of the shard count.

// FabricWorkload selects the traffic pattern.
type FabricWorkload string

const (
	// WorkloadFlood: every host sends Packets packets at Gap intervals to
	// seed-hashed destinations.
	WorkloadFlood FabricWorkload = "flood"
	// WorkloadPingPong: hosts pair (h, h^1); each pair plays Packets
	// round trips, the reply sent from the receive upcall.
	WorkloadPingPong FabricWorkload = "pingpong"
)

// FabricConfig parameterizes one fabric run.
type FabricConfig struct {
	Topo     topo.Config
	Workload FabricWorkload // default flood
	Packets  int            // per-host send budget (default 4)
	Payload  int            // payload bytes per packet (default 64)
	Gap      sim.Duration   // per-host inter-send gap (default 5 us)
	Limit    sim.Duration   // run limit (default 100 ms)
	// Record keeps per-host flow tables and receive logs for the
	// equivalence fingerprint. Off for throughput runs.
	Record bool
}

func (c *FabricConfig) fillDefaults() {
	if c.Workload == "" {
		c.Workload = WorkloadFlood
	}
	if c.Packets <= 0 {
		c.Packets = 4
	}
	if c.Payload <= 0 {
		c.Payload = 64
	}
	if c.Gap <= 0 {
		c.Gap = 5 * sim.Microsecond
	}
	if c.Limit <= 0 {
		c.Limit = 100 * sim.Millisecond
	}
}

// fabricStart is when every host makes its first send.
const fabricStart = sim.Time(sim.Microsecond)

// fabricEvent is one receive-log entry: the per-host event log the
// equivalence fingerprint renders.
type fabricEvent struct {
	at  sim.Time
	src uint16
	n   int
}

// fabricLogCap bounds each host's receive log; Record runs are small-fabric
// gates, so hitting the cap means a misconfigured test, and the fingerprint
// exposes the truncation through the delivered counters anyway.
const fabricLogCap = 8192

// FabricTestbed is a built fabric with its workload armed.
type FabricTestbed struct {
	Cfg FabricConfig
	F   *topo.Fabric

	Sent      []uint64 // per host
	SendErrs  []uint64
	Delivered []uint64
	Bytes     []uint64

	payloads []byte // per-host send buffers, Payload bytes each

	rings []*monitor.ExportRing // per host, Record only
	flows []*monitor.FlowTable
	logs  [][]fabricEvent

	drained bool
}

// NewFabricTestbed builds the fabric and schedules the workload's initial
// events. Run drives it. It rejects an unknown workload and a flood with
// fewer than two hosts (a flood host never sends to itself).
func NewFabricTestbed(cfg FabricConfig) (*FabricTestbed, error) {
	cfg.fillDefaults()
	switch cfg.Workload {
	case WorkloadFlood:
		if cfg.Topo.Hosts < 2 {
			return nil, fmt.Errorf("campaign: a flood needs at least 2 hosts (got %d)", cfg.Topo.Hosts)
		}
	case WorkloadPingPong:
	default:
		return nil, fmt.Errorf("campaign: unknown fabric workload %q", cfg.Workload)
	}
	f, err := topo.Build(cfg.Topo)
	if err != nil {
		return nil, err
	}
	hosts := cfg.Topo.Hosts
	tb := &FabricTestbed{
		Cfg:       cfg,
		F:         f,
		Sent:      make([]uint64, hosts),
		SendErrs:  make([]uint64, hosts),
		Delivered: make([]uint64, hosts),
		Bytes:     make([]uint64, hosts),
		payloads:  make([]byte, hosts*cfg.Payload),
	}
	if cfg.Record {
		tb.rings = make([]*monitor.ExportRing, hosts)
		tb.flows = make([]*monitor.FlowTable, hosts)
		tb.logs = make([][]fabricEvent, hosts)
		for h := 0; h < hosts; h++ {
			tb.rings[h] = monitor.NewExportRing(256)
			tb.flows[h] = monitor.NewFlowTable(f.Hosts[h].Name(), tb.rings[h], sim.Second)
		}
	}
	for h := 0; h < hosts; h++ {
		h := h
		f.Hosts[h].SetDataHandler(func(src myrinet.MAC, payload []byte) {
			tb.onData(h, src, payload)
		})
	}
	tb.arm()
	return tb, nil
}

// fabricMix is the workload's counter-based random stream (splitmix64 over
// the argument tuple): deterministic, shared-nothing, never touching any
// kernel's RNG.
func fabricMix(vals ...uint64) uint64 {
	h := uint64(0x452821e638d01377)
	for _, v := range vals {
		h ^= v
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// fabricSender is a host's send chain: a pooled AtArg argument that
// reschedules itself, one live event per host.
type fabricSender struct {
	tb *FabricTestbed
	h  int
	n  int
}

func fabricSenderFire(a any) { a.(*fabricSender).fire() }

func (s *fabricSender) fire() {
	tb := s.tb
	tb.send(s.h, tb.floodDst(s.h, s.n), uint32(s.n))
	s.n++
	if s.n < tb.Cfg.Packets {
		tb.F.HostKernel(s.h).AfterArg(tb.Cfg.Gap, fabricSenderFire, s)
	}
}

// floodDst picks packet n's destination for host h: seed-hashed, never h
// itself.
func (tb *FabricTestbed) floodDst(h, n int) int {
	hosts := tb.Cfg.Topo.Hosts
	d := int(fabricMix(uint64(tb.Cfg.Topo.Seed), uint64(h), uint64(n)) % uint64(hosts-1))
	if d >= h {
		d++
	}
	return d
}

// arm schedules the workload's opening sends on each host's shard kernel;
// NewFabricTestbed has validated the workload.
func (tb *FabricTestbed) arm() {
	hosts := tb.Cfg.Topo.Hosts
	switch tb.Cfg.Workload {
	case WorkloadFlood:
		for h := 0; h < hosts; h++ {
			s := &fabricSender{tb: tb, h: h}
			tb.F.HostKernel(h).AtArg(fabricStart, fabricSenderFire, s)
		}
	case WorkloadPingPong:
		// The even host of each complete pair serves: it sends the
		// opening packet carrying the remaining-hop count; every
		// receive decrements and returns it until it hits zero.
		for h := 0; h < hosts-1; h += 2 {
			s := &pongOpener{tb: tb, h: h}
			tb.F.HostKernel(h).AtArg(fabricStart, pongOpenerFire, s)
		}
	}
}

type pongOpener struct {
	tb *FabricTestbed
	h  int
}

func pongOpenerFire(a any) {
	s := a.(*pongOpener)
	hops := uint32(2*s.tb.Cfg.Packets - 1)
	s.tb.send(s.h, s.h+1, hops)
}

// send builds and transmits one workload packet from src to dst. The first
// four payload bytes carry the sequence number (flood) or remaining-hop
// count (ping-pong); the rest is a deterministic fill pattern. Send copies
// the payload, so each host reuses one buffer, touched only on its shard.
func (tb *FabricTestbed) send(src, dst int, word uint32) {
	n := tb.Cfg.Payload
	p := tb.payloads[src*n : (src+1)*n]
	if len(p) >= 4 {
		p[0], p[1], p[2], p[3] = byte(word>>24), byte(word>>16), byte(word>>8), byte(word)
	}
	fill := byte(fabricMix(uint64(src), uint64(dst), uint64(word)))
	for i := 4; i < len(p); i++ {
		p[i] = fill + byte(i)
	}
	if err := tb.F.Hosts[src].Send(topo.HostMAC(dst), p); err != nil {
		tb.SendErrs[src]++
		return
	}
	tb.Sent[src]++
}

// onData is every host's receive upcall, running on the host's shard
// kernel.
func (tb *FabricTestbed) onData(h int, src myrinet.MAC, payload []byte) {
	tb.Delivered[h]++
	tb.Bytes[h] += uint64(len(payload))
	if tb.Cfg.Record {
		now := tb.F.HostKernel(h).Now()
		s, _ := topo.HostIndex(src)
		if len(tb.logs[h]) < fabricLogCap {
			tb.logs[h] = append(tb.logs[h], fabricEvent{at: now, src: uint16(s), n: len(payload)})
		}
		tb.flows[h].Observe(monitor.FlowKey{Src: src, Dst: tb.F.Hosts[h].MAC()}, len(payload), now)
	}
	if tb.Cfg.Workload == WorkloadPingPong && len(payload) >= 4 {
		hops := uint32(payload[0])<<24 | uint32(payload[1])<<16 | uint32(payload[2])<<8 | uint32(payload[3])
		if hops > 0 {
			s, ok := topo.HostIndex(src)
			if ok {
				tb.send(h, s, hops-1)
			}
		}
	}
}

// Run advances the fabric to the configured limit and reports whether it
// drained (ran to quiescence). Record runs flush the flow tables so every
// flow lands in its ring.
func (tb *FabricTestbed) Run() bool {
	tb.drained = tb.F.Run(sim.Time(tb.Cfg.Limit))
	if tb.Cfg.Record {
		for h := range tb.flows {
			tb.flows[h].FlushAll()
		}
	}
	return tb.drained
}

// Close releases the fabric's shard workers.
func (tb *FabricTestbed) Close() { tb.F.Close() }

// Totals sums the per-host counters.
func (tb *FabricTestbed) Totals() (sent, delivered, bytes uint64) {
	for h := range tb.Sent {
		sent += tb.Sent[h]
		delivered += tb.Delivered[h]
		bytes += tb.Bytes[h]
	}
	return
}

// fabricFingerprint digests the complete post-run state: coordinator
// counters, every STAT counter on every switch port and host interface,
// per-cable link totals, workload counters, flow records, and the per-host
// receive event logs. Two runs with equal fingerprints executed the same
// events in the same order — the byte-identity the shard equivalence gate
// compares across shard counts. Shard-count-dependent quantities are
// excluded or aggregated: windows and exchanged-delivery counts depend on
// the partition and the distance matrix (adaptive horizons cut fewer,
// wider windows; only cross-shard deliveries ride the exchange), and
// per-shard clocks / per-kernel event counts appear only as the global
// last-event time and the processed-event sum, which the coordinator keeps
// partition-independent.
func fabricFingerprint(tb *FabricTestbed) string {
	var b strings.Builder
	f := tb.F
	fmt.Fprintf(&b, "fabric now=%d processed=%d drained=%v\n",
		f.Group.Now(), f.Group.Processed(), tb.drained)
	for _, sw := range f.Switches {
		writeSwitch(&b, sw)
	}
	for h, ifc := range f.Hosts {
		writeCounters(&b, ifc.Name(), ifc.Counters())
		fmt.Fprintf(&b, "%s sent=%d errs=%d delivered=%d bytes=%d\n",
			ifc.Name(), tb.Sent[h], tb.SendErrs[h], tb.Delivered[h], tb.Bytes[h])
	}
	writeCables(&b, f.Cables)
	if tb.Cfg.Record {
		for h := range tb.rings {
			writeFlows(&b, tb.rings[h].Records())
			fmt.Fprintf(&b, "ring %d exported=%d dropped=%d\n", h, tb.rings[h].Exported(), tb.rings[h].Dropped())
		}
		for h := range tb.logs {
			for _, e := range tb.logs[h] {
				fmt.Fprintf(&b, "ev h%04d at=%d src=%d n=%d\n", h, e.at, e.src, e.n)
			}
		}
	}
	return b.String()
}

// FabricResult summarizes one throughput run for the CLI.
type FabricResult struct {
	Cfg       FabricConfig
	Drained   bool
	SimTime   sim.Time
	Wall      time.Duration
	Sent      uint64
	Delivered uint64
	Bytes     uint64
	Symbols   uint64 // total link characters carried
	Events    uint64
	Windows   uint64
	Exchanged uint64
	// ShardEvents is the per-shard executed-event split — the load
	// balance the partitioner achieved.
	ShardEvents []uint64
}

// RunFabric builds, runs, and tears down one fabric workload.
func RunFabric(cfg FabricConfig) (FabricResult, error) {
	tb, err := NewFabricTestbed(cfg)
	if err != nil {
		return FabricResult{}, err
	}
	defer tb.Close()
	start := time.Now()
	drained := tb.Run()
	wall := time.Since(start)
	sent, delivered, bytes := tb.Totals()
	res := FabricResult{
		Cfg:       tb.Cfg,
		Drained:   drained,
		SimTime:   tb.F.Group.Now(),
		Wall:      wall,
		Sent:      sent,
		Delivered: delivered,
		Bytes:     bytes,
		Symbols:   tb.F.TotalChars(),
		Events:    tb.F.Group.Processed(),
		Windows:   tb.F.Group.Windows(),
		Exchanged: tb.F.Group.Exchanged(),
	}
	for _, k := range tb.F.Kernels {
		res.ShardEvents = append(res.ShardEvents, k.Processed())
	}
	return res, nil
}

// EventsPerWindow reports the mean executed events per coordinator window
// — the direct measure of how much work each barrier amortizes.
func (r FabricResult) EventsPerWindow() float64 {
	if r.Windows == 0 {
		return 0
	}
	return float64(r.Events) / float64(r.Windows)
}

// WindowsPerSimSec reports coordinator windows per simulated second — the
// adaptive-lookahead headline: lower means wider safe horizons.
func (r FabricResult) WindowsPerSimSec() float64 {
	secs := float64(r.SimTime) * 1e-12
	if secs <= 0 {
		return 0
	}
	return float64(r.Windows) / secs
}

// SymbolsPerSec reports simulated link characters per wall-clock second.
func (r FabricResult) SymbolsPerSec() float64 {
	secs := r.Wall.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Symbols) / secs
}

// FormatFabricStats renders the coordinator-efficiency block behind
// `netfi fabric -stats`: window counts, barrier traffic, and the
// events-per-window / windows-per-simulated-second ratios that say whether
// the adaptive horizons are doing their job.
func FormatFabricStats(r FabricResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  stats: %.1f events/window, %.3gM windows/simsec\n",
		r.EventsPerWindow(), r.WindowsPerSimSec()/1e6)
	fmt.Fprintf(&b, "  stats: %d windows, %d exchanged deliveries, %.2fM symbols/s wall\n",
		r.Windows, r.Exchanged, r.SymbolsPerSec()/1e6)
	return b.String()
}

// FormatFabric renders the CLI report.
func FormatFabric(r FabricResult) string {
	var b strings.Builder
	f := r.Cfg.Topo
	fmt.Fprintf(&b, "fabric: %d switches, %d hosts, %d shards (seed %d, %s workload)\n",
		f.Switches, f.Hosts, f.Shards, f.Seed, r.Cfg.Workload)
	fmt.Fprintf(&b, "  run: drained=%v simTime=%v wall=%v\n", r.Drained, r.SimTime, r.Wall.Round(time.Millisecond))
	fmt.Fprintf(&b, "  traffic: sent=%d delivered=%d bytes=%d\n", r.Sent, r.Delivered, r.Bytes)
	secs := r.Wall.Seconds()
	if secs > 0 {
		fmt.Fprintf(&b, "  rate: %.2fM symbols/s, %.2fM events/s (%d symbols, %d events)\n",
			float64(r.Symbols)/secs/1e6, float64(r.Events)/secs/1e6, r.Symbols, r.Events)
	}
	fmt.Fprintf(&b, "  coordinator: %d windows, %d cross-shard deliveries\n", r.Windows, r.Exchanged)
	fmt.Fprintf(&b, "  shard events:")
	for i, n := range r.ShardEvents {
		if i == 16 {
			fmt.Fprintf(&b, " ... (%d shards)", len(r.ShardEvents))
			break
		}
		fmt.Fprintf(&b, " %d", n)
	}
	b.WriteByte('\n')
	return b.String()
}
