package myrinet

import (
	"sort"

	"netfi/internal/sim"
)

// MappingConfig parameterizes the MCP's mapping behaviour (§4.1: "Each MCP
// on a network is given a unique 64-bit address, and the MCP with the
// highest address is responsible for mapping the network, a process which
// is performed once every second").
type MappingConfig struct {
	// Enabled turns on mapper-role participation (rounds and watchdog).
	// Scout responses are always on: they are interface firmware.
	Enabled bool
	// InitialMapper makes this node start mapping immediately instead of
	// waiting for the watchdog; set it on the highest-ID node.
	InitialMapper bool
	// MapPeriod is the interval between mapping rounds. Zero selects 1 s.
	MapPeriod sim.Duration
	// ScoutTimeout is how long the mapper waits for scout replies per
	// probe wave. Zero selects 1 ms.
	ScoutTimeout sim.Duration
	// ProbeDepth is the maximum number of switch hops probed. Zero
	// selects 1 (a single switch, the paper's test bed).
	ProbeDepth int
	// ProbeFanout is the assumed switch port count. Zero selects 8.
	ProbeFanout int
}

const (
	// watchdogFactor scales MapPeriod into the promotion timeout: a
	// non-mapper that hears no routing-table update for
	// watchdogFactor*MapPeriod promotes itself.
	watchdogFactor = 2.5
	// mapInitialDelay postpones the first round/watchdog after attach.
	mapInitialDelay = sim.Millisecond
)

func (c *MappingConfig) fillDefaults() {
	if c.MapPeriod == 0 {
		c.MapPeriod = sim.Second
	}
	if c.ScoutTimeout == 0 {
		c.ScoutTimeout = sim.Millisecond
	}
	if c.ProbeDepth == 0 {
		c.ProbeDepth = 1
	}
	if c.ProbeFanout == 0 {
		c.ProbeFanout = DefaultPortCount
	}
}

// Mapping packet subtypes, carried in the first payload byte.
const (
	mapSubScout byte = 1
	mapSubReply byte = 2
	mapSubTable byte = 3
)

// scoutFixedLen is the scout payload before switch-appended in-ports:
// subtype (1) + mapper ID (8) + mapper MAC (6) + probe sequence (2).
const scoutFixedLen = 1 + 8 + 6 + 2

// MapEntry describes one node discovered by a mapping round.
type MapEntry struct {
	// Route is the mapper's source route to the node (including the
	// final byte).
	Route []byte
	// InPorts lists the switch input ports the scout traversed; reversed
	// they form the node's route back to the mapper.
	InPorts []byte
	// MAC is the node's 48-bit physical address.
	MAC MAC
	// ID is the node's 64-bit MCP address.
	ID NodeID
}

// Snapshot is the outcome of one mapping round — what mmon renders and what
// Fig. 11 contrasts before/after the controller-address corruption.
type Snapshot struct {
	At           sim.Time
	Mapper       NodeID
	Round        uint64
	Entries      []MapEntry
	Inconsistent bool
}

// NodeCount reports how many nodes the snapshot contains.
func (s *Snapshot) NodeCount() int { return len(s.Entries) }

// Has reports whether the snapshot contains a node with the given MAC.
func (s *Snapshot) Has(mac MAC) bool {
	for _, e := range s.Entries {
		if e.MAC == mac {
			return true
		}
	}
	return false
}

// MCP is the Myrinet Control Program: mapping rounds when this node is the
// mapper, scout responses always, routing-table installation, and the
// promotion watchdog.
type MCP struct {
	ifc *Interface
	cfg MappingConfig

	isMapper bool
	watchdog *sim.Timer

	// Mapper round state.
	seq         uint16
	probes      map[uint16]*probe
	roundActive bool
	rounds      uint64
	failed      uint64
	last        *Snapshot

	// Statistics.
	scoutsSent     uint64
	scoutsAnswered uint64
	repliesSeen    uint64
	demotions      uint64
}

type probe struct {
	route    []byte
	firstHop int
	entry    *MapEntry
}

func newMCP(ifc *Interface, cfg MappingConfig) *MCP {
	cfg.fillDefaults()
	m := &MCP{ifc: ifc, cfg: cfg, probes: make(map[uint16]*probe)}
	m.watchdog = sim.NewTimer(ifc.k, sim.Duration(watchdogFactor*float64(cfg.MapPeriod)), m.onWatchdog)
	return m
}

// start is called when the interface attaches to the network.
func (m *MCP) start() {
	if !m.cfg.Enabled {
		return
	}
	if m.cfg.InitialMapper {
		m.isMapper = true
	}
	m.ifc.k.AfterArg(mapInitialDelay, mcpStart, m)
}

// Package-level trampolines: the MCP's periodic machinery schedules
// capture-free (AfterArg) so a warmed testbed with mapping armed can be
// forked (see sim.Mapper).
func mcpStart(a any) {
	m := a.(*MCP)
	if !m.isMapper {
		m.watchdog.Reset()
	}
	m.tick()
}

func mcpTick(a any)       { a.(*MCP).tick() }
func mcpSecondWave(a any) { a.(*MCP).secondWave() }
func mcpFinish(a any)     { a.(*MCP).finishRound() }
func mcpBegin(a any)      { a.(*MCP).beginRound() }

// tick is the single per-node periodic driver: mappers begin a round every
// MapPeriod ("performed once every second").
func (m *MCP) tick() {
	if m.isMapper && !m.roundActive {
		m.beginRound()
	}
	m.ifc.k.AfterArg(m.cfg.MapPeriod, mcpTick, m)
}

// IsMapper reports whether this node currently acts as the network mapper.
func (m *MCP) IsMapper() bool { return m.isMapper }

// LastSnapshot returns the most recent mapping round's outcome (mapper
// only), or nil.
func (m *MCP) LastSnapshot() *Snapshot { return m.last }

// Rounds reports completed mapping rounds and how many were inconsistent.
func (m *MCP) Rounds() (total, inconsistent uint64) { return m.rounds, m.failed }

// onWatchdog promotes this node to mapper after silence from the current
// one — the recovery that brings the network back when the mapper's address
// is corrupted away.
func (m *MCP) onWatchdog() {
	if m.isMapper || !m.cfg.Enabled {
		return
	}
	m.isMapper = true
	m.beginRound()
}

// ---- mapper rounds ----

func (m *MCP) beginRound() {
	if !m.isMapper || m.roundActive {
		return
	}
	m.roundActive = true
	m.probes = make(map[uint16]*probe)
	for p := 0; p < m.cfg.ProbeFanout; p++ {
		m.sendScout([]byte{SwitchHop(p), RouteFinal}, p)
	}
	if m.cfg.ProbeDepth >= 2 {
		m.ifc.k.AfterArg(m.cfg.ScoutTimeout, mcpSecondWave, m)
	} else {
		m.ifc.k.AfterArg(m.cfg.ScoutTimeout, mcpFinish, m)
	}
}

func (m *MCP) secondWave() {
	if !m.isMapper || !m.roundActive {
		return
	}
	answered := make(map[int]bool)
	for _, pr := range m.probes {
		if pr.entry != nil {
			answered[pr.firstHop] = true
		}
	}
	for p := 0; p < m.cfg.ProbeFanout; p++ {
		if answered[p] {
			continue // a host answered directly; no switch behind it
		}
		for q := 0; q < m.cfg.ProbeFanout; q++ {
			m.sendScout([]byte{SwitchHop(p), SwitchHop(q), RouteFinal}, p)
		}
	}
	m.ifc.k.AfterArg(m.cfg.ScoutTimeout, mcpFinish, m)
}

func (m *MCP) sendScout(route []byte, firstHop int) {
	m.seq++
	m.probes[m.seq] = &probe{route: route, firstHop: firstHop}
	payload := make([]byte, 0, scoutFixedLen)
	payload = append(payload, mapSubScout)
	payload = appendID(payload, m.ifc.cfg.ID)
	payload = append(payload, m.ifc.cfg.MAC[:]...)
	payload = append(payload, byte(m.seq>>8), byte(m.seq))
	m.scoutsSent++
	m.ifc.SendPacket(&Packet{Route: route, Type: TypeMapping, Payload: payload})
}

func (m *MCP) finishRound() {
	if !m.isMapper || !m.roundActive {
		return
	}
	m.roundActive = false
	m.rounds++

	entries := []MapEntry{{Route: []byte{RouteFinal}, InPorts: nil, MAC: m.ifc.cfg.MAC, ID: m.ifc.cfg.ID}}
	seqs := make([]int, 0, len(m.probes))
	for s := range m.probes {
		seqs = append(seqs, int(s))
	}
	sort.Ints(seqs)
	for _, s := range seqs {
		if e := m.probes[uint16(s)].entry; e != nil {
			entries = append(entries, *e)
		}
	}

	inconsistent := hasDuplicateIdentity(entries)
	if inconsistent {
		// "The controller is confused by the appearance of what it
		// believes is another controller, and is unable to generate a
		// consistent map. Each attempt to resolve the network fails in
		// an apparently random fashion" (§4.3.3): keep a pseudo-random
		// subset; the faulty map is not static across rounds.
		m.failed++
		rng := m.ifc.k.Rand()
		kept := entries[:1]
		for _, e := range entries[1:] {
			if rng.Intn(2) == 0 {
				kept = append(kept, e)
			}
		}
		entries = kept
	}

	snap := &Snapshot{
		At:           m.ifc.k.Now(),
		Mapper:       m.ifc.cfg.ID,
		Round:        m.rounds,
		Entries:      entries,
		Inconsistent: inconsistent,
	}
	m.last = snap
	m.distribute(snap)
}

func hasDuplicateIdentity(entries []MapEntry) bool {
	macs := make(map[MAC]bool, len(entries))
	ids := make(map[NodeID]bool, len(entries))
	for _, e := range entries {
		if macs[e.MAC] || ids[e.ID] {
			return true
		}
		macs[e.MAC] = true
		ids[e.ID] = true
	}
	return false
}

// distribute computes per-node routing tables from the snapshot and sends
// them out (subtype 3). The mapper installs its own table directly.
func (m *MCP) distribute(snap *Snapshot) {
	self := snap.Entries[0]
	for i, x := range snap.Entries {
		table := make(map[MAC][]byte, len(snap.Entries)-1)
		for j, y := range snap.Entries {
			if i == j {
				continue
			}
			r := routeBetween(x, y)
			if r != nil {
				table[y.MAC] = r
			}
		}
		if x.MAC == self.MAC {
			m.ifc.replaceRoutes(table)
			continue
		}
		m.sendTable(x, table)
	}
}

// routeBetween computes the source route from x to y using the scout
// evidence: reversed in-ports walk back toward the mapper's switch, then
// the mapper's forward route reaches y. Valid for tree topologies.
func routeBetween(x, y MapEntry) []byte {
	if len(x.InPorts) == 0 {
		// x is the mapper: its route to y is the probe route.
		return append([]byte(nil), y.Route...)
	}
	rev := make([]byte, 0, len(x.InPorts))
	for i := len(x.InPorts) - 1; i >= 0; i-- {
		rev = append(rev, SwitchHop(int(x.InPorts[i])))
	}
	if len(y.InPorts) == 0 {
		// y is the mapper: the reversed in-ports lead straight to it.
		return append(rev, RouteFinal)
	}
	// Stop one hop short of the mapper and splice y's forward hops.
	route := rev[:len(rev)-1]
	route = append(route, y.Route...)
	return route
}

func (m *MCP) sendTable(x MapEntry, table map[MAC][]byte) {
	payload := []byte{mapSubTable}
	payload = appendID(payload, m.ifc.cfg.ID)
	payload = append(payload, byte(len(table)>>8), byte(len(table)))
	macs := make([]MAC, 0, len(table))
	for mac := range table {
		macs = append(macs, mac)
	}
	sort.Slice(macs, func(i, j int) bool { return macs[i].String() < macs[j].String() })
	for _, mac := range macs {
		r := table[mac]
		payload = append(payload, mac[:]...)
		payload = append(payload, byte(len(r)))
		payload = append(payload, r...)
	}
	m.ifc.SendPacket(&Packet{Route: x.Route, Type: TypeMapping, Payload: payload})
}

// ---- packet handling (all nodes) ----

func (m *MCP) handlePacket(payload []byte) {
	if len(payload) == 0 {
		m.ifc.ctr.Drop(DropTruncated)
		return
	}
	switch payload[0] {
	case mapSubScout:
		m.handleScout(payload)
	case mapSubReply:
		m.handleReply(payload)
	case mapSubTable:
		m.handleTable(payload)
	default:
		m.ifc.ctr.Drop(DropUnknownType)
	}
}

// handleScout answers a scout with this node's identity and the echoed
// forward in-ports. Responses are interface firmware: they work even when
// the host is unreachable for data traffic (§4.3.3).
func (m *MCP) handleScout(payload []byte) {
	if len(payload) < scoutFixedLen {
		m.ifc.ctr.Drop(DropTruncated)
		return
	}
	origin := readID(payload[1:9])
	if origin == m.ifc.cfg.ID {
		return // own scout looped back through the fabric
	}
	seqHi, seqLo := payload[15], payload[16]
	inPorts := payload[scoutFixedLen:]
	// Reply route: reversed in-ports, then the final byte.
	route := make([]byte, 0, len(inPorts)+1)
	for i := len(inPorts) - 1; i >= 0; i-- {
		route = append(route, SwitchHop(int(inPorts[i])))
	}
	route = append(route, RouteFinal)

	reply := []byte{mapSubReply}
	reply = appendID(reply, m.ifc.cfg.ID)
	reply = append(reply, m.ifc.cfg.MAC[:]...)
	reply = append(reply, seqHi, seqLo)
	reply = append(reply, byte(len(inPorts)))
	reply = append(reply, inPorts...)
	m.scoutsAnswered++
	m.ifc.SendPacket(&Packet{Route: route, Type: TypeMapping, Payload: reply})
}

// handleReply records a scout answer during an active round.
func (m *MCP) handleReply(payload []byte) {
	const fixed = 1 + 8 + 6 + 2 + 1
	if len(payload) < fixed {
		m.ifc.ctr.Drop(DropTruncated)
		return
	}
	if !m.isMapper || !m.roundActive {
		return // stale reply
	}
	m.repliesSeen++
	id := readID(payload[1:9])
	var mac MAC
	copy(mac[:], payload[9:15])
	seq := uint16(payload[15])<<8 | uint16(payload[16])
	n := int(payload[17])
	if len(payload) < fixed+n {
		m.ifc.ctr.Drop(DropTruncated)
		return
	}
	fwdPorts := append([]byte(nil), payload[fixed:fixed+n]...)
	pr, ok := m.probes[seq]
	if !ok || pr.entry != nil {
		return // unknown probe or duplicate answer
	}
	pr.entry = &MapEntry{
		Route:   append([]byte(nil), pr.route...),
		InPorts: fwdPorts,
		MAC:     mac,
		ID:      id,
	}
}

// handleTable installs a routing table from a mapper and arbitrates the
// mapper role by MCP address.
func (m *MCP) handleTable(payload []byte) {
	const fixed = 1 + 8 + 2
	if len(payload) < fixed {
		m.ifc.ctr.Drop(DropTruncated)
		return
	}
	mapper := readID(payload[1:9])
	count := int(payload[9])<<8 | int(payload[10])
	table := make(map[MAC][]byte, count)
	off := fixed
	for i := 0; i < count; i++ {
		if off+7 > len(payload) {
			m.ifc.ctr.Drop(DropTruncated)
			return
		}
		var mac MAC
		copy(mac[:], payload[off:off+6])
		rl := int(payload[off+6])
		off += 7
		if off+rl > len(payload) {
			m.ifc.ctr.Drop(DropTruncated)
			return
		}
		table[mac] = append([]byte(nil), payload[off:off+rl]...)
		off += rl
	}
	m.ifc.replaceRoutes(table)
	if m.cfg.Enabled {
		m.watchdog.Reset()
	}
	switch {
	case m.isMapper && mapper > m.ifc.cfg.ID:
		// A higher-address MCP is mapping: defer to it (§4.1).
		m.demotions++
		m.isMapper = false
	case !m.isMapper && m.cfg.Enabled && mapper < m.ifc.cfg.ID:
		// We outrank the active mapper: take over.
		m.isMapper = true
		m.ifc.k.AfterArg(mapInitialDelay, mcpBegin, m)
	}
}

// ScoutsAnswered reports how many scouts this node replied to.
func (m *MCP) ScoutsAnswered() uint64 { return m.scoutsAnswered }

// Demotions reports how many times this node ceded the mapper role.
func (m *MCP) Demotions() uint64 { return m.demotions }

func appendID(b []byte, id NodeID) []byte {
	return append(b,
		byte(id>>56), byte(id>>48), byte(id>>40), byte(id>>32),
		byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
}

func readID(b []byte) NodeID {
	return NodeID(b[0])<<56 | NodeID(b[1])<<48 | NodeID(b[2])<<40 | NodeID(b[3])<<32 |
		NodeID(b[4])<<24 | NodeID(b[5])<<16 | NodeID(b[6])<<8 | NodeID(b[7])
}
