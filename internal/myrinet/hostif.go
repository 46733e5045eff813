package myrinet

import (
	"fmt"

	"netfi/internal/bitstream"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Interface is a Myrinet host interface (NIC): it connects a host to the
// network, runs the Myrinet Control Program (MCP) responsible for mapping
// (§4.1), parses the incoming character stream back into packets, performs
// the hardware checks (CRC-8, route-byte MSB, destination address), and
// exposes a routing table of MAC → source route.
//
// Classification happens at wire speed, like the LANai hardware: an
// interface keeps answering mapping packets even when its host is wedged —
// the behaviour §4.3.3 observes ("the node still responds correctly to
// mapping packets").
//
// The zero value is not usable; construct with NewInterface.
type Interface struct {
	k   *sim.Kernel
	cfg InterfaceConfig
	lc  *LinkController
	ctr *Counters

	// Receive-side stream parser. assembling and rx are reused packet
	// after packet, so a delivered payload is valid only during its upcall.
	inPacket   bool
	assembling []byte
	oversized  bool
	rx         Packet

	// Routing.
	routes map[MAC][]byte
	// resolver appends a route on a table miss (large fabrics derive
	// routes from topology instead of materializing H^2 entries); Send
	// resolves into routeBuf, reused send after send.
	resolver func(buf []byte, dst MAC) ([]byte, bool)
	routeBuf []byte

	// MCP.
	mcp *MCP

	// Host-side delivery callback (src MAC, UDP-level payload).
	onData func(src MAC, payload []byte)
	// onPacket observes every structurally valid packet before
	// classification; used by monitors and tests. Return value ignored.
	onPacket func(p *Packet)
}

// InterfaceConfig parameterizes an interface.
type InterfaceConfig struct {
	// Name labels the interface in traces.
	Name string
	// MAC is the interface's 48-bit physical address.
	MAC MAC
	// ID is the MCP's 64-bit unique address; the highest ID on the
	// network is responsible for mapping.
	ID NodeID
	// TxQueueLimit bounds the NIC transmit queue in packets; sends
	// beyond it are dropped (DropTxQueue). Zero means unbounded.
	TxQueueLimit int
	// Mapping configures the MCP's mapping behaviour.
	Mapping MappingConfig
	// Recovery enables the link-reset protocol on the interface's link.
	Recovery RecoveryConfig
}

// maxPacket bounds reassembly; a stream exceeding it before a GAP is
// dropped as oversize.
const maxPacket = 4096

// NewInterface returns an unattached interface.
func NewInterface(k *sim.Kernel, cfg InterfaceConfig) *Interface {
	ifc := &Interface{
		k:      k,
		cfg:    cfg,
		ctr:    NewCounters(),
		routes: make(map[MAC][]byte),
	}
	ifc.mcp = newMCP(ifc, cfg.Mapping)
	return ifc
}

// AttachLink wires the interface: out transmits toward the network; the
// returned receiver must be set as the destination of the arriving link.
func (ifc *Interface) AttachLink(out *phy.Link) phy.Receiver {
	if ifc.lc != nil {
		panic(fmt.Sprintf("myrinet: interface %s already attached", ifc.cfg.Name))
	}
	ifc.lc = NewLinkController(ifc.k, LinkControllerConfig{
		Name:     ifc.cfg.Name + ".lc",
		Out:      out,
		Counters: ifc.ctr,
		Recovery: ifc.cfg.Recovery,
	})
	ifc.lc.SetNotify(ifc.drain)
	ifc.lc.SetResetHandler(ifc.onLinkReset)
	ifc.mcp.start()
	return ifc.lc
}

// onLinkReset abandons the in-flight reassembly: the link was reset, so the
// partial packet's tail is gone.
func (ifc *Interface) onLinkReset() {
	if ifc.inPacket {
		ifc.ctr.Drop(DropReset)
	}
	ifc.assembling = ifc.assembling[:0]
	ifc.inPacket = false
	ifc.oversized = false
}

// Name returns the interface's label.
func (ifc *Interface) Name() string { return ifc.cfg.Name }

// MAC returns the interface's physical address.
func (ifc *Interface) MAC() MAC { return ifc.cfg.MAC }

// ID returns the MCP's unique address.
func (ifc *Interface) ID() NodeID { return ifc.cfg.ID }

// Counters returns the interface statistics.
func (ifc *Interface) Counters() *Counters { return ifc.ctr }

// Controller exposes the link controller (monitors and tests).
func (ifc *Interface) Controller() *LinkController { return ifc.lc }

// MCP returns the interface's Myrinet Control Program.
func (ifc *Interface) MCP() *MCP { return ifc.mcp }

// SetDataHandler registers the host-stack delivery callback. payload
// aliases the interface's reassembly buffer: it is valid only until fn
// returns, so a handler that keeps the bytes must copy them.
func (ifc *Interface) SetDataHandler(fn func(src MAC, payload []byte)) { ifc.onData = fn }

// SetPacketObserver registers a callback invoked for every CRC-valid packet
// addressed to this interface's link, before classification. The packet and
// the slices it holds are reused for the next one: they are valid only until
// fn returns, so an observer that keeps any of it must copy.
func (ifc *Interface) SetPacketObserver(fn func(p *Packet)) { ifc.onPacket = fn }

// ---- routing table ----

// SetRoute installs a static route (tests and manual topologies).
func (ifc *Interface) SetRoute(dst MAC, route []byte) {
	ifc.routes[dst] = append([]byte(nil), route...)
}

// SetRouteResolver installs a fallback consulted on a routing-table miss:
// fn appends dst's route to buf and returns the extended slice. Resolved
// routes are not cached, so the resolver must be a pure function of dst.
// Fabric topologies use this to derive routes on demand from the port
// mapping instead of pre-installing hosts-squared entries.
func (ifc *Interface) SetRouteResolver(fn func(buf []byte, dst MAC) ([]byte, bool)) {
	ifc.resolver = fn
	if ifc.routeBuf == nil {
		ifc.routeBuf = make([]byte, 0, routeBufCap)
	}
}

// routeBufCap sizes the buffer Send resolves routes into: one byte per
// switch hop, far beyond any fabric's diameter. A longer route still
// resolves, into a fresh buffer.
const routeBufCap = 64

// Route returns the source route for dst, if known.
func (ifc *Interface) Route(dst MAC) ([]byte, bool) { return ifc.route(nil, dst) }

// route looks dst up in the routing table and, on a miss, asks the
// resolver, which appends the route to buf.
func (ifc *Interface) route(buf []byte, dst MAC) ([]byte, bool) {
	if r, ok := ifc.routes[dst]; ok {
		return r, true
	}
	if ifc.resolver == nil {
		return nil, false
	}
	return ifc.resolver(buf, dst)
}

// Routes returns a copy of the routing table.
func (ifc *Interface) Routes() map[MAC][]byte {
	out := make(map[MAC][]byte, len(ifc.routes))
	for m, r := range ifc.routes {
		out[m] = append([]byte(nil), r...)
	}
	return out
}

// replaceRoutes installs a full table (mapping distribution).
func (ifc *Interface) replaceRoutes(table map[MAC][]byte) {
	ifc.routes = table
}

// ---- transmit ----

// dataHeaderLen is the data-packet payload prefix: destination MAC (6) and
// source MAC (6), the 48-bit Ethernet-style addresses of §4.3.3.
const dataHeaderLen = 12

// Send transmits payload to dst using the routing table. It returns an
// error — and counts DropNoRoute — when the destination is not in the table
// (the node was removed from the network map). The packet is encoded into a
// buffer of its own, so the caller may reuse payload at once.
func (ifc *Interface) Send(dst MAC, payload []byte) error {
	route, ok := ifc.route(ifc.routeBuf[:0], dst)
	if !ok {
		ifc.ctr.Drop(DropNoRoute)
		return fmt.Errorf("myrinet: %s has no route to %v", ifc.cfg.Name, dst)
	}
	ifc.transmit(route, 0, TypeData, dataHeaderLen+len(payload), dst[:], ifc.cfg.MAC[:], payload)
	return nil
}

// SendPacket transmits an arbitrary packet (mapping traffic, tests). When
// the bounded transmit queue is full — the link is stalled by STOP or a
// blocked path — the packet is dropped like a full hardware send ring.
func (ifc *Interface) SendPacket(p *Packet) {
	ifc.transmit(p.Route, p.TypeHigh, p.Type, len(p.Payload), p.Payload)
}

// transmit encodes a packet whose payload is the concatenation of parts
// (payloadLen bytes) into a buffer from the kernel's arena and queues it;
// the controller recycles the buffer once the packet leaves.
func (ifc *Interface) transmit(route []byte, typeHigh, typ uint16, payloadLen int, parts ...[]byte) {
	if ifc.lc == nil {
		panic(fmt.Sprintf("myrinet: interface %s not attached", ifc.cfg.Name))
	}
	if ifc.cfg.TxQueueLimit > 0 && ifc.lc.QueuedPackets() >= ifc.cfg.TxQueueLimit {
		ifc.ctr.Drop(DropTxQueue)
		return
	}
	chars := phy.GetBurst(ifc.k, len(route)+4+payloadLen+2)
	putPacketChars(chars, route, typeHigh, typ, parts...)
	ifc.lc.enqueueOwned(chars, ifc)
}

// TxDone implements TxCompletion: the interface's per-packet send accounting.
// The interface (not a closure) carries the completion so pending transmit
// queues survive a fork.
func (ifc *Interface) TxDone(terminated bool) {
	if !terminated {
		ifc.ctr.PacketsSent++
	}
}

// ---- receive ----

// drain consumes the slack buffer, reassembling packets.
func (ifc *Interface) drain() {
	for {
		c, ok := ifc.lc.Pop()
		if !ok {
			return
		}
		if c.IsData() {
			ifc.inPacket = true
			if ifc.oversized {
				continue
			}
			if len(ifc.assembling) >= maxPacket {
				ifc.oversized = true
				continue
			}
			ifc.assembling = append(ifc.assembling, c.Byte())
			continue
		}
		if DecodeControl(c.Byte()) == SymbolGap && ifc.inPacket {
			ifc.completePacket()
		}
	}
}

// completePacket classifies one reassembled packet.
func (ifc *Interface) completePacket() {
	raw := ifc.assembling
	oversized := ifc.oversized
	ifc.assembling = raw[:0]
	ifc.inPacket = false
	ifc.oversized = false

	switch {
	case oversized:
		ifc.ctr.Drop(DropOversize)
		return
	case len(raw) < 6: // route + 4-byte type + CRC
		ifc.ctr.Drop(DropTruncated)
		return
	}
	routeByte := raw[0]
	if routeByte&RouteSwitchFlag != 0 {
		// "Consumed and handled as an error": dropped without incident,
		// no error propagation (§4.3.2, source route corruption).
		ifc.ctr.Drop(DropRouteMSB)
		return
	}
	body, crc := raw[:len(raw)-1], raw[len(raw)-1]
	if bitstream.CRC8(body) != crc {
		ifc.ctr.Drop(DropCRC)
		return
	}
	p := &ifc.rx
	*p = Packet{
		Route:    raw[0:1],
		TypeHigh: uint16(raw[1])<<8 | uint16(raw[2]),
		Type:     uint16(raw[3])<<8 | uint16(raw[4]),
		Payload:  raw[5 : len(raw)-1],
	}
	if ifc.onPacket != nil {
		ifc.onPacket(p)
	}
	if p.TypeHigh != 0 {
		ifc.ctr.Drop(DropUnknownType)
		return
	}
	switch p.Type {
	case TypeData:
		ifc.handleData(p.Payload)
	case TypeMapping:
		ifc.mcp.handlePacket(p.Payload)
	default:
		// Corrupted designators (e.g. 0x0005 -> 0x000x) land here: the
		// packet is ignored, so a corrupted mapping exchange looks like
		// a missing response to the mapper (§4.3.2).
		ifc.ctr.Drop(DropUnknownType)
	}
}

func (ifc *Interface) handleData(payload []byte) {
	if len(payload) < dataHeaderLen {
		ifc.ctr.Drop(DropTruncated)
		return
	}
	var dst, src MAC
	copy(dst[:], payload[0:6])
	copy(src[:], payload[6:12])
	if dst != ifc.cfg.MAC {
		// Misaddressed packets are dropped silently; with its inbound
		// addresses corrupted a node "drops all packets as being
		// misaddressed" (§4.3.3).
		ifc.ctr.Drop(DropMisaddressed)
		return
	}
	ifc.ctr.PacketsReceived++
	if ifc.onData != nil {
		ifc.onData(src, payload[dataHeaderLen:])
	}
}
