package myrinet

import (
	"fmt"

	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Attachable is anything that terminates a full-duplex Myrinet cable: host
// interfaces and switch ports (via portAttacher).
type Attachable interface {
	// AttachLink wires the device to transmit on out and returns the
	// receiver for the arriving direction.
	AttachLink(out *phy.Link) phy.Receiver
}

// portAttacher adapts one switch port to the Attachable interface.
type portAttacher struct {
	sw   *Switch
	port int
}

// AttachLink implements Attachable.
func (pa portAttacher) AttachLink(out *phy.Link) phy.Receiver {
	return pa.sw.AttachLink(pa.port, out)
}

// Port returns an Attachable for port p of sw.
func Port(sw *Switch, p int) Attachable { return portAttacher{sw: sw, port: p} }

// DefaultLinkConfig returns the paper's link timing: 80 MB/s per direction
// (12.5 ns character period) and a one-meter cable (~5 ns propagation).
func DefaultLinkConfig(name string) phy.LinkConfig {
	return phy.LinkConfig{
		Name:       name,
		CharPeriod: CharPeriod,
		PropDelay:  5 * sim.Nanosecond,
	}
}

// nullReceiver discards characters; used as a placeholder while wiring. It
// has no kernel to release into, so a discarded burst falls to the GC.
type nullReceiver struct{}

func (nullReceiver) Receive([]phy.Character) {}

// ConnectCross builds a full-duplex cable between endpoints that may live on
// different kernels: each direction's link is constructed on the *sender's*
// kernel (a link reads its own clock when serializing), while delivery to
// the far side is the fabric layer's problem — it installs a DeliverySink on
// both links so bursts cross shards through barrier exchange instead of
// direct scheduling. With ka == kb and no sinks installed it is an
// ordinary same-kernel cable, which it returns so the fault injector can
// later be spliced into it.
func ConnectCross(ka, kb *sim.Kernel, cfg phy.LinkConfig, a, b Attachable) *phy.Cable {
	aToB := cfg
	aToB.Name = cfg.Name + ":a2b"
	bToA := cfg
	bToA.Name = cfg.Name + ":b2a"
	linkAB := phy.NewLink(ka, aToB, nullReceiver{})
	linkBA := phy.NewLink(kb, bToA, nullReceiver{})
	recvA := a.AttachLink(linkAB) // a transmits on linkAB
	recvB := b.AttachLink(linkBA) // b transmits on linkBA
	linkAB.SetDst(recvB)
	linkBA.SetDst(recvA)
	return &phy.Cable{LeftToRight: linkAB, RightToLeft: linkBA}
}

// Network is a convenience container for a simulated Myrinet: the kernel,
// switches, interfaces, and the cables between them.
type Network struct {
	Kernel     *sim.Kernel
	Switches   []*Switch
	Interfaces []*Interface
	Cables     map[string]*phy.Cable
}

// NewNetwork returns an empty network on the given kernel.
func NewNetwork(k *sim.Kernel) *Network {
	return &Network{Kernel: k, Cables: make(map[string]*phy.Cable)}
}

// AddSwitch creates and registers a switch.
func (n *Network) AddSwitch(name string, ports int) *Switch {
	sw := NewSwitch(n.Kernel, name, ports)
	n.Switches = append(n.Switches, sw)
	return sw
}

// ConnectHost cables a host interface to a switch port and records the
// cable under the interface's name.
func (n *Network) ConnectHost(ifc *Interface, sw *Switch, port int) *phy.Cable {
	cable := ConnectCross(n.Kernel, n.Kernel, DefaultLinkConfig(fmt.Sprintf("%s<->%s.p%d", ifc.Name(), sw.Name(), port)), ifc, Port(sw, port))
	n.Cables[ifc.Name()] = cable
	return cable
}

// ConnectSwitches cables two switch ports together.
func (n *Network) ConnectSwitches(a *Switch, pa int, b *Switch, pb int) *phy.Cable {
	name := fmt.Sprintf("%s.p%d<->%s.p%d", a.Name(), pa, b.Name(), pb)
	cable := ConnectCross(n.Kernel, n.Kernel, DefaultLinkConfig(name), Port(a, pa), Port(b, pb))
	n.Cables[name] = cable
	return cable
}

// InstallStaticRoutes gives every interface a route to every other assuming
// all are on a single switch, bypassing the mapping protocol. Tests that do
// not exercise mapping use this; ports maps each interface to its switch
// port.
func (n *Network) InstallStaticRoutes(ports map[*Interface]int) {
	for a, _ := range ports {
		for b, pb := range ports {
			if a == b {
				continue
			}
			a.SetRoute(b.MAC(), RouteTo(pb))
		}
	}
}
