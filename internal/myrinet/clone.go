package myrinet

import (
	"fmt"

	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). The myrinet layer's cloning rules:
//
//   - Counters are frequently shared between a port and its link controller,
//     so they clone through a lookup-or-copy helper that registers the first
//     copy and reuses it for every later reference.
//   - Callbacks wired at construction time (slack watermarks, timer fns,
//     notify/reset handlers) are method values on the owner; each clone
//     rebinds them to the new-world owner rather than copying the old
//     closure.
//   - Cross-references that span devices (a controller's output link, a tap)
//     resolve in the mapper's deferred pass, so clone order never matters.
//   - Queued txPackets survive only with interface-form completions (the
//     Interface send path); a pending closure completion (EnqueuePacket)
//     fails the fork loudly.

// cloneCounters returns the fork's copy of c, creating and registering it on
// first sight. Shared counters (a switch port and its controller point at the
// same struct) stay shared in the fork.
func cloneCounters(m *sim.Mapper, c *Counters) *Counters {
	if c == nil {
		return nil
	}
	if v, ok := m.Lookup(c); ok {
		return v.(*Counters)
	}
	c2 := &Counters{}
	*c2 = *c
	c2.Drops = make(map[DropReason]uint64, len(c.Drops))
	for r, n := range c.Drops {
		c2.Drops[r] = n
	}
	m.Put(c, c2)
	return c2
}

// clone copies the slack buffer with new watermark callbacks (method values
// on the cloned controller).
func (s *SlackBuffer) clone(onStop, onGo func()) *SlackBuffer {
	s2 := &SlackBuffer{
		buf:      append([]phy.Character(nil), s.buf...),
		capacity: s.capacity,
		head:     s.head,
		count:    s.count,
		high:     s.high,
		low:      s.low,
		stopping: s.stopping,
		onStop:   onStop,
		onGo:     onGo,
		overflow: s.overflow,
		pushes:   s.pushes,
	}
	return s2
}

// clone copies one queued packet into a stream from the fork's arena, which
// the fork then owns. The interface-form completion remaps in the deferred
// pass; a closure-form completion cannot cross a fork and fails it.
func (p *txPacket) clone(m *sim.Mapper, owner string) *txPacket {
	p2 := &txPacket{chars: phy.GetBurst(m.Kernel(), len(p.chars)), owned: true}
	copy(p2.chars, p.chars)
	if p.onDone != nil {
		m.Defer(func() error {
			return fmt.Errorf("myrinet: fork: %s has a queued packet with a closure completion (EnqueuePacket); send through an Interface instead", owner)
		})
	}
	if p.done != nil {
		done := p.done
		m.Defer(func() error {
			d2, ok := m.Lookup(done)
			if !ok {
				return fmt.Errorf("myrinet: fork: %s queued packet completes to uncloned %T", owner, done)
			}
			p2.done = d2.(TxCompletion)
			return nil
		})
	}
	return p2
}

// Clone forks the link controller. The consumer callbacks (notify,
// txDrainNotify, onReset) are left nil: the owning port or interface rebinds
// them when it clones itself. The output link and tap resolve deferred.
func (lc *LinkController) Clone(m *sim.Mapper) *LinkController {
	lc2 := &LinkController{
		k:           m.Kernel(),
		name:        lc.name,
		ctr:         cloneCounters(m, lc.ctr),
		paused:      lc.paused,
		curPos:      lc.curPos,
		txScheduled: lc.txScheduled,
		streamPos:   lc.streamPos,
		refreshOn:   lc.refreshOn,
		recovery:    lc.recovery,
	}
	m.Put(lc, lc2)
	lc2.shortTimer = lc.shortTimer.Clone(m, lc2.onShortTimeout)
	lc2.longTimer = lc.longTimer.Clone(m, lc2.onLongTimeout)
	if lc.stopWatchdog != nil {
		lc2.stopWatchdog = lc.stopWatchdog.Clone(m, lc2.onStopWatchdog)
	}
	if lc.cur != nil {
		lc2.cur = lc.cur.clone(m, lc.name)
	}
	if lc.QueuedPackets() > 0 {
		lc2.txq = make([]*txPacket, lc.QueuedPackets())
		for i, p := range lc.txq[lc.txHead:] {
			lc2.txq[i] = p.clone(m, lc.name)
		}
	}
	if len(lc.streamBuf) > 0 {
		lc2.streamBuf = append([]phy.Character(nil), lc.streamBuf...)
	}
	lc2.slack = lc.slack.clone(lc2.assertStop, lc2.assertGo)
	m.Put(lc.slack, lc2.slack)
	lc2.refreshEvent = m.MapEventID(lc.refreshEvent)
	m.Defer(func() error {
		out, ok := m.Lookup(lc.out)
		if !ok {
			return fmt.Errorf("myrinet: fork: controller %s transmits on uncloned link %s", lc.name, lc.out.Name())
		}
		lc2.out = out.(*phy.Link)
		return nil
	})
	if lc.tap != nil {
		tap := lc.tap
		m.Defer(func() error {
			t2, ok := m.Lookup(tap)
			if !ok {
				return fmt.Errorf("myrinet: fork: controller %s has an uncloned tap %T", lc.name, tap)
			}
			lc2.tap = t2.(Tap)
			return nil
		})
	}
	return lc2
}

// Clone forks the switch: every port's FSM state, controller, and watchdog,
// with intra-switch cross-references (held outputs, waiter queues) resolved
// by port index.
func (sw *Switch) Clone(m *sim.Mapper) *Switch {
	sw2 := &Switch{
		k:        m.Kernel(),
		name:     sw.name,
		recovery: sw.recovery,
		ports:    make([]*switchPort, len(sw.ports)),
	}
	m.Put(sw, sw2)
	for i, p := range sw.ports {
		p2 := &switchPort{
			sw:           sw2,
			index:        i,
			ctr:          cloneCounters(m, p.ctr),
			state:        p.state,
			pendingRoute: p.pendingRoute,
			held:         p.held,
			haveHeld:     p.haveHeld,
			crcCorr:      p.crcCorr,
			phase:        p.phase,
			typeBytes:    p.typeBytes,
			typeLen:      p.typeLen,
			isMapping:    p.isMapping,
		}
		m.Put(p, p2)
		sw2.ports[i] = p2
	}
	// Second pass: everything that references other ports of this switch.
	for i, p := range sw.ports {
		p2 := sw2.ports[i]
		if p.lc != nil {
			p2.lc = p.lc.Clone(m)
			p2.lc.notify = p2.drain
			p2.lc.txDrainNotify = p2.onOutputDrained
			p2.lc.onReset = p2.onReset
		}
		if p.outPort != nil {
			p2.outPort = sw2.ports[p.outPort.index]
		}
		if p.owner != nil {
			p2.owner = sw2.ports[p.owner.index]
		}
		if len(p.waiters) > 0 {
			p2.waiters = make([]*switchPort, len(p.waiters))
			for j, w := range p.waiters {
				p2.waiters[j] = sw2.ports[w.index]
			}
		}
		if p.blockedTimer != nil {
			p2.blockedTimer = p.blockedTimer.Clone(m, p2.onBlockedTimeout)
		}
	}
	return sw2
}

// clone forks the MCP. The last snapshot is shared (it is immutable once
// published — a new round replaces, never mutates, it).
func (mc *MCP) clone(m *sim.Mapper, ifc2 *Interface) *MCP {
	m2 := &MCP{
		ifc:            ifc2,
		cfg:            mc.cfg,
		isMapper:       mc.isMapper,
		seq:            mc.seq,
		roundActive:    mc.roundActive,
		rounds:         mc.rounds,
		failed:         mc.failed,
		last:           mc.last,
		scoutsSent:     mc.scoutsSent,
		scoutsAnswered: mc.scoutsAnswered,
		repliesSeen:    mc.repliesSeen,
		demotions:      mc.demotions,
	}
	m2.probes = make(map[uint16]*probe, len(mc.probes))
	for s, pr := range mc.probes {
		pr2 := &probe{
			route:    append([]byte(nil), pr.route...),
			firstHop: pr.firstHop,
		}
		if pr.entry != nil {
			e := *pr.entry
			e.Route = append([]byte(nil), pr.entry.Route...)
			e.InPorts = append([]byte(nil), pr.entry.InPorts...)
			pr2.entry = &e
		}
		m2.probes[s] = pr2
	}
	m.Put(mc, m2)
	m2.watchdog = mc.watchdog.Clone(m, m2.onWatchdog)
	return m2
}

// Clone forks the interface: stream parser state, routing table, controller,
// and MCP. The host-side data handler is rebound by the owning Node's clone;
// the packet observer is monitoring-owned and re-registered post-fork.
func (ifc *Interface) Clone(m *sim.Mapper) *Interface {
	if ifc.resolver != nil {
		panic(fmt.Sprintf("myrinet: fork: interface %s has a route resolver; fabric interfaces do not fork", ifc.cfg.Name))
	}
	ifc2 := &Interface{
		k:         m.Kernel(),
		cfg:       ifc.cfg,
		ctr:       cloneCounters(m, ifc.ctr),
		inPacket:  ifc.inPacket,
		oversized: ifc.oversized,
		routes:    make(map[MAC][]byte, len(ifc.routes)),
	}
	if len(ifc.assembling) > 0 {
		ifc2.assembling = append([]byte(nil), ifc.assembling...)
	}
	for mac, r := range ifc.routes {
		ifc2.routes[mac] = append([]byte(nil), r...)
	}
	m.Put(ifc, ifc2)
	if ifc.lc != nil {
		ifc2.lc = ifc.lc.Clone(m)
		ifc2.lc.notify = ifc2.drain
		ifc2.lc.onReset = ifc2.onLinkReset
	}
	ifc2.mcp = ifc.mcp.clone(m, ifc2)
	return ifc2
}

// Clone forks the whole network container: switches, interfaces, and cables.
// The kernel must already be cloned into m (phase 1).
func (n *Network) Clone(m *sim.Mapper) *Network {
	n2 := &Network{
		Kernel: m.Kernel(),
		Cables: make(map[string]*phy.Cable, len(n.Cables)),
	}
	m.Put(n, n2)
	// nullReceiver is a stateless placeholder left as a link destination
	// only on half-wired topologies; it maps to itself.
	m.Put(nullReceiver{}, nullReceiver{})
	for _, sw := range n.Switches {
		n2.Switches = append(n2.Switches, sw.Clone(m))
	}
	for _, ifc := range n.Interfaces {
		n2.Interfaces = append(n2.Interfaces, ifc.Clone(m))
	}
	for name, c := range n.Cables {
		n2.Cables[name] = c.Clone(m)
	}
	return n2
}
