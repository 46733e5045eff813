// Package topo instantiates multi-stage Myrinet fabrics — leaf-spine Clos
// topologies with hundreds of switches and thousands of hosts — and shards
// one simulation across per-core event kernels.
//
// Everything about a fabric is a pure function of its Config: switch and
// host placement, port mapping, source routes, and the shard partition all
// derive deterministically from the parameters and the seed, so two
// processes building the same Config get byte-identical fabrics with no
// mapping protocol traffic (the MCP is disabled; routes come from the
// resolver).
//
// Sharding: the switch graph and the hosts are partitioned into N shards,
// each owning a private sim.Kernel. Every cable is *channelized*: its
// deliveries become externally-ordered events stamped with the link's rank
// and per-link sequence, so every kernel fires same-time deliveries in an
// order that is a pure function of the traffic rather than the partition
// (see sim.Kernel.AtExt). Cross-shard cables buffer deliveries in the
// sender shard's outbox and inject them at barriers (phy.ExchangeSet);
// same-shard cables schedule the identical event immediately
// (phy.DirectEnd). The same fabric run with 1, 2, or N shards is therefore
// byte-identical, which the campaign equivalence gate pins down.
//
// Adaptive lookahead: Build derives a shard-pair minimum-latency matrix
// from the cable map — the weight of a cross-shard edge is one character's
// serialization plus that cable's propagation delay, and dist(i, j) is the
// all-pairs shortest influence path over those edges (purely intra-shard
// chains need no barrier: DirectEnd schedules them synchronously). The
// ShardGroup uses the matrix to compute per-shard safe horizons from the
// actual pending-event times, so shards sprint past quiet periods instead
// of lock-stepping at the global minimum channel latency.
package topo

import (
	"fmt"

	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Config parameterizes a fabric. The zero value is not usable; Switches and
// Hosts must be positive.
type Config struct {
	// Switches is the total switch count. Switches/8 (at least one, when
	// the count allows two leaves) become spines; the rest are leaves.
	// Small fabrics that cannot form a two-stage Clos fall back to a
	// full mesh of host-bearing switches.
	Switches int
	// Hosts is the total host-interface count, distributed contiguously
	// across the host-bearing switches.
	Hosts int
	// Shards is the number of event kernels to partition across; it is
	// clamped to [1, Switches+Hosts]. Zero selects 1.
	Shards int
	// Seed drives every deterministic choice (spine selection per
	// leaf pair, kernel seeding).
	Seed int64
	// HostPropDelay is the host-to-leaf cable propagation delay; zero
	// selects 25 ns (an in-rack cable). It bounds the distance matrix's
	// cross-shard edges, so longer cables mean fewer barriers.
	HostPropDelay sim.Duration
	// TrunkPropDelay is the switch-to-switch cable propagation delay;
	// zero selects 100 ns (a cross-rack trunk).
	TrunkPropDelay sim.Duration
}

func (c *Config) fillDefaults() error {
	if c.Switches <= 0 {
		return fmt.Errorf("topo: Switches must be positive (got %d)", c.Switches)
	}
	if c.Hosts <= 0 {
		return fmt.Errorf("topo: Hosts must be positive (got %d)", c.Hosts)
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if max := c.Switches + c.Hosts; c.Shards > max {
		c.Shards = max
	}
	if c.HostPropDelay <= 0 {
		c.HostPropDelay = 25 * sim.Nanosecond
	}
	if c.TrunkPropDelay <= 0 {
		c.TrunkPropDelay = 100 * sim.Nanosecond
	}
	return nil
}

// Fabric is a built multi-switch Myrinet with its shard coordinator.
type Fabric struct {
	Config Config

	Kernels []*sim.Kernel
	Group   *sim.ShardGroup

	// Switches: in a Clos fabric indexes [0, leaves) are leaf switches
	// and [leaves, leaves+spines) are spines; in a mesh every switch
	// bears hosts.
	Switches []*myrinet.Switch
	Hosts    []*myrinet.Interface
	Cables   []*phy.Cable // rank order: host cables, then trunks

	// Topology shape.
	Mesh         bool
	Spines       int
	Leaves       int
	HostsPerLeaf int

	shardOfSwitch []int
	shardOfHost   []int

	exch *phy.ExchangeSet
	// crossMin[{i, j}] is the minimum direct latency of any cross-shard
	// cable direction from shard i to shard j; the distance matrix's edge
	// weights.
	crossMin map[[2]int]sim.Duration
}

// hostMACPrefix distinguishes fabric host addresses; the low two bytes are
// the host index.
var hostMACPrefix = [4]byte{0x06, 0x4d, 0x59, 0x52} // locally administered, "MYR"

// HostMAC returns the deterministic address of fabric host i.
func HostMAC(i int) myrinet.MAC {
	return myrinet.MAC{hostMACPrefix[0], hostMACPrefix[1], hostMACPrefix[2], hostMACPrefix[3], byte(i >> 8), byte(i)}
}

// HostIndex inverts HostMAC; ok is false for foreign addresses.
func HostIndex(m myrinet.MAC) (int, bool) {
	if [4]byte{m[0], m[1], m[2], m[3]} != hostMACPrefix {
		return 0, false
	}
	return int(m[4])<<8 | int(m[5]), true
}

// splitmix advances one splitmix64 step; the fabric's only "random" choices
// (spine selection, kernel seeds) hash through it so they depend on nothing
// but the seed and the topology coordinates.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(vals ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vals {
		h = splitmix(h ^ v)
	}
	return h
}

// Build constructs the fabric: switches and interfaces on their shard
// kernels, every cable channelized through the shard outboxes, route
// resolvers installed, and the ShardGroup wired with the exchange hook.
func Build(cfg Config) (*Fabric, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	f := &Fabric{Config: cfg}

	// Shape: two-stage Clos when at least two leaves remain after
	// carving out spines; otherwise a full mesh of host-bearing
	// switches (covers the paper-scale 1- and 2-switch labs).
	f.Spines = cfg.Switches / 8
	if f.Spines < 1 {
		f.Spines = 1
	}
	f.Leaves = cfg.Switches - f.Spines
	if f.Leaves < 2 {
		f.Mesh = true
		f.Spines = 0
		f.Leaves = cfg.Switches
	}
	f.HostsPerLeaf = (cfg.Hosts + f.Leaves - 1) / f.Leaves

	// Port budgets: route bytes address ports through a 7-bit field.
	leafPorts := f.HostsPerLeaf + f.Spines
	if f.Mesh {
		leafPorts = f.HostsPerLeaf + cfg.Switches
	}
	const maxPorts = int(myrinet.RoutePortMask) + 1
	if leafPorts > maxPorts {
		return nil, fmt.Errorf("topo: %d ports per leaf exceeds the %d-port route byte (reduce hosts per switch)", leafPorts, maxPorts)
	}
	if f.Leaves > maxPorts {
		return nil, fmt.Errorf("topo: %d leaves exceed the %d-port spine radix", f.Leaves, maxPorts)
	}

	f.partition()

	// Kernels. The per-shard seeds only matter if a model consumes
	// kernel randomness, which fabric models never do (mapping is
	// disabled, jitter off); seeding them distinctly is belt and braces
	// for misuse, not a determinism requirement.
	f.Kernels = make([]*sim.Kernel, cfg.Shards)
	for i := range f.Kernels {
		f.Kernels[i] = sim.NewKernel(int64(mix(uint64(cfg.Seed), uint64(i))))
	}
	f.exch = phy.NewExchangeSet(cfg.Shards)
	f.crossMin = make(map[[2]int]sim.Duration)

	// Switches.
	f.Switches = make([]*myrinet.Switch, cfg.Switches)
	for i := range f.Switches {
		var name string
		var ports int
		switch {
		case f.Mesh:
			name, ports = fmt.Sprintf("sw%03d", i), leafPorts
		case i < f.Leaves:
			name, ports = fmt.Sprintf("leaf%03d", i), leafPorts
		default:
			name, ports = fmt.Sprintf("spine%02d", i-f.Leaves), f.Leaves
		}
		f.Switches[i] = myrinet.NewSwitch(f.Kernels[f.shardOfSwitch[i]], name, ports)
	}

	// Hosts.
	f.Hosts = make([]*myrinet.Interface, cfg.Hosts)
	for h := range f.Hosts {
		ifc := myrinet.NewInterface(f.Kernels[f.shardOfHost[h]], myrinet.InterfaceConfig{
			Name: fmt.Sprintf("h%04d", h),
			MAC:  HostMAC(h),
			ID:   myrinet.NodeID(h + 1),
		})
		ifc.SetRouteResolver(f.resolverFor(h))
		f.Hosts[h] = ifc
	}

	// Cables, in rank order: host h ascending, then trunks. Each link's
	// rank is 2*cable (left-to-right) or 2*cable+1, so the exchange sort
	// key is unique and topology-determined.
	hostLink := phy.LinkConfig{CharPeriod: myrinet.CharPeriod, PropDelay: cfg.HostPropDelay}
	trunkLink := phy.LinkConfig{CharPeriod: myrinet.CharPeriod, PropDelay: cfg.TrunkPropDelay}
	for h := range f.Hosts {
		sw, port := f.hostAttach(h)
		lc := hostLink
		lc.Name = fmt.Sprintf("%s<->%s.p%d", f.Hosts[h].Name(), f.Switches[sw].Name(), port)
		f.addCable(lc, f.shardOfHost[h], f.shardOfSwitch[sw], f.Hosts[h], myrinet.Port(f.Switches[sw], port))
	}
	if f.Mesh {
		for a := 0; a < cfg.Switches; a++ {
			for b := a + 1; b < cfg.Switches; b++ {
				lc := trunkLink
				lc.Name = fmt.Sprintf("%s.p%d<->%s.p%d", f.Switches[a].Name(), f.HostsPerLeaf+b, f.Switches[b].Name(), f.HostsPerLeaf+a)
				f.addCable(lc, f.shardOfSwitch[a], f.shardOfSwitch[b],
					myrinet.Port(f.Switches[a], f.HostsPerLeaf+b), myrinet.Port(f.Switches[b], f.HostsPerLeaf+a))
			}
		}
	} else {
		for l := 0; l < f.Leaves; l++ {
			for s := 0; s < f.Spines; s++ {
				spine := f.Switches[f.Leaves+s]
				lc := trunkLink
				lc.Name = fmt.Sprintf("%s.p%d<->%s.p%d", f.Switches[l].Name(), f.HostsPerLeaf+s, spine.Name(), l)
				f.addCable(lc, f.shardOfSwitch[l], f.shardOfSwitch[f.Leaves+s],
					myrinet.Port(f.Switches[l], f.HostsPerLeaf+s), myrinet.Port(spine, l))
			}
		}
	}

	f.Group = sim.NewShardGroup(f.Kernels, f.distanceMatrix())
	f.Group.SetExchange(f.exch.Exchange)
	return f, nil
}

// distanceMatrix computes dist[i][j]: the minimum virtual-time latency from
// an event executing on shard i to the earliest resulting arrival on shard
// j over influence paths with at least one cross-shard hop (zero when no
// such path exists). Purely intra-shard delivery chains are excluded on
// purpose — DirectEnd schedules them synchronously during the window, so
// they never need barrier protection; only chains whose last hop crosses a
// shard boundary wait in an outbox. Seeding each Dijkstra frontier with the
// source's outgoing edges (instead of dist[src] = 0) makes dist[j][j] the
// shortest nontrivial cross-shard cycle through j for free.
func (f *Fabric) distanceMatrix() [][]sim.Duration {
	n := f.Config.Shards
	type edge struct {
		to int
		w  sim.Duration
	}
	adj := make([][]edge, n)
	for pair, w := range f.crossMin {
		adj[pair[0]] = append(adj[pair[0]], edge{pair[1], w})
	}

	const inf = sim.Duration(1<<63 - 1)
	type item struct {
		d sim.Duration
		v int
	}
	var pq []item
	push := func(it item) {
		pq = append(pq, it)
		for i := len(pq) - 1; i > 0; {
			p := (i - 1) / 2
			if pq[p].d <= pq[i].d {
				break
			}
			pq[p], pq[i] = pq[i], pq[p]
			i = p
		}
	}
	pop := func() item {
		top := pq[0]
		last := len(pq) - 1
		pq[0] = pq[last]
		pq = pq[:last]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(pq) && pq[l].d < pq[m].d {
				m = l
			}
			if r < len(pq) && pq[r].d < pq[m].d {
				m = r
			}
			if m == i {
				break
			}
			pq[i], pq[m] = pq[m], pq[i]
			i = m
		}
		return top
	}

	dist := make([][]sim.Duration, n)
	d := make([]sim.Duration, n)
	for src := 0; src < n; src++ {
		for i := range d {
			d[i] = inf
		}
		pq = pq[:0]
		for _, e := range adj[src] {
			if e.w < d[e.to] {
				d[e.to] = e.w
				push(item{e.w, e.to})
			}
		}
		for len(pq) > 0 {
			it := pop()
			if it.d > d[it.v] {
				continue
			}
			for _, e := range adj[it.v] {
				if nd := it.d + e.w; nd < d[e.to] {
					d[e.to] = nd
					push(item{nd, e.to})
				}
			}
		}
		row := make([]sim.Duration, n)
		for j := range row {
			if d[j] < inf {
				row[j] = d[j]
			}
		}
		dist[src] = row
	}
	return dist
}

// partition assigns switches and hosts to shards. Units are switches AND
// hosts, so a fabric can shard finer than its switch count (the 2-switch
// equivalence gate runs 4 shards). With N <= switches, switches split into
// contiguous blocks and each host follows its switch, keeping host<->leaf
// cables intra-shard; with more shards than switches, every switch gets its
// own shard and hosts spread over the remainder.
func (f *Fabric) partition() {
	s, h, n := f.Config.Switches, f.Config.Hosts, f.Config.Shards
	f.shardOfSwitch = make([]int, s)
	f.shardOfHost = make([]int, h)
	if n <= s {
		for i := range f.shardOfSwitch {
			f.shardOfSwitch[i] = i * n / s
		}
		for i := range f.shardOfHost {
			sw, _ := f.hostAttach(i)
			f.shardOfHost[i] = f.shardOfSwitch[sw]
		}
		return
	}
	for i := range f.shardOfSwitch {
		f.shardOfSwitch[i] = i
	}
	for i := range f.shardOfHost {
		f.shardOfHost[i] = s + i*(n-s)/h
	}
}

// hostAttach returns the switch index and port where host h attaches.
func (f *Fabric) hostAttach(h int) (sw, port int) {
	return h / f.HostsPerLeaf, h % f.HostsPerLeaf
}

// addCable builds one channelized cable: each direction's link lives on the
// sender's kernel. Cross-shard directions buffer through the sender shard's
// outbox for barrier exchange and record the edge in the latency graph;
// same-shard directions schedule the identical externally-ordered event
// directly into the shared kernel.
func (f *Fabric) addCable(cfg phy.LinkConfig, shardA, shardB int, a, b myrinet.Attachable) {
	cable := myrinet.ConnectCross(f.Kernels[shardA], f.Kernels[shardB], cfg, a, b)
	rank := uint32(2 * len(f.Cables))
	if shardA == shardB {
		cable.LeftToRight.SetDeliverySink(phy.NewDirectEnd(f.Kernels[shardA], rank))
		cable.RightToLeft.SetDeliverySink(phy.NewDirectEnd(f.Kernels[shardA], rank+1))
	} else {
		cable.LeftToRight.SetDeliverySink(phy.NewChannelEnd(f.exch.Box(shardA), f.Kernels[shardB], rank))
		cable.RightToLeft.SetDeliverySink(phy.NewChannelEnd(f.exch.Box(shardB), f.Kernels[shardA], rank+1))
		lat := cfg.CharPeriod + cfg.PropDelay
		f.noteCross(shardA, shardB, lat)
		f.noteCross(shardB, shardA, lat)
	}
	f.Cables = append(f.Cables, cable)
}

// noteCross records a direct cross-shard edge for the distance matrix.
func (f *Fabric) noteCross(from, to int, lat sim.Duration) {
	key := [2]int{from, to}
	if cur, ok := f.crossMin[key]; !ok || lat < cur {
		f.crossMin[key] = lat
	}
}

// Route returns the source route from host src to host dst, or false when
// either index is out of range. Same-leaf traffic takes one hop; cross-leaf
// traffic transits a spine chosen deterministically per (srcLeaf, dstLeaf)
// from the seed, so both the route and the load spread are reproducible.
func (f *Fabric) Route(src, dst int) ([]byte, bool) { return f.appendRoute(nil, src, dst) }

// appendRoute is Route appending into buf.
func (f *Fabric) appendRoute(buf []byte, src, dst int) ([]byte, bool) {
	if src < 0 || src >= f.Config.Hosts || dst < 0 || dst >= f.Config.Hosts || src == dst {
		return nil, false
	}
	srcSw, _ := f.hostAttach(src)
	dstSw, dstPort := f.hostAttach(dst)
	if srcSw == dstSw {
		return myrinet.AppendRoute(buf, dstPort), true
	}
	if f.Mesh {
		return myrinet.AppendRoute(buf, f.HostsPerLeaf+dstSw, dstPort), true
	}
	spine := int(mix(uint64(f.Config.Seed), uint64(srcSw), uint64(dstSw)) % uint64(f.Spines))
	return myrinet.AppendRoute(buf, f.HostsPerLeaf+spine, dstSw, dstPort), true
}

// resolverFor builds host h's on-demand route resolver: the interface's
// table stays empty and every send derives its route from the topology, so
// a 1024-host fabric never materializes a million route entries.
func (f *Fabric) resolverFor(h int) func([]byte, myrinet.MAC) ([]byte, bool) {
	return func(buf []byte, dst myrinet.MAC) ([]byte, bool) {
		d, ok := HostIndex(dst)
		if !ok {
			return nil, false
		}
		return f.appendRoute(buf, h, d)
	}
}

// ShardOfHost returns the shard owning host h.
func (f *Fabric) ShardOfHost(h int) int { return f.shardOfHost[h] }

// ShardOfSwitch returns the shard owning switch i.
func (f *Fabric) ShardOfSwitch(i int) int { return f.shardOfSwitch[i] }

// HostKernel returns the kernel owning host h; workload events for h must
// be scheduled here.
func (f *Fabric) HostKernel(h int) *sim.Kernel { return f.Kernels[f.shardOfHost[h]] }

// Run advances the fabric to limit (see sim.ShardGroup.Run); it reports
// whether the fabric drained.
func (f *Fabric) Run(limit sim.Time) bool { return f.Group.Run(limit) }

// Close releases the shard workers. The fabric must not run afterwards.
func (f *Fabric) Close() { f.Group.Close() }

// TotalChars sums the characters carried by every link in the fabric — the
// "simulated symbols" of the headline symbols/sec metric.
func (f *Fabric) TotalChars() uint64 {
	var total uint64
	for _, c := range f.Cables {
		for _, l := range []*phy.Link{c.LeftToRight, c.RightToLeft} {
			chars, _ := l.Stats()
			total += chars
		}
	}
	return total
}
