package campaign

import (
	"fmt"
	"strings"

	"netfi/internal/host"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// Sec432Result reproduces the §4.3.2 packet-type corruption experiments:
// mapping-packet designator corruption (0x0005 → 0x000x), data-packet
// designator corruption (0x0004 → unknown), source-route MSB corruption,
// and misrouting.
type Sec432Result struct {
	// Mapping-packet corruption: the node whose scout exchange was hit
	// disappears from the map and from peers' routing tables, and comes
	// back at the next mapping round.
	MappingNodeRemoved  bool
	MappingSendsFailed  uint64 // no-route failures while removed
	MappingNodeRestored bool

	// Data-packet corruption: dropped by the receiving node; routing
	// structures untouched.
	DataPacketDropped   bool
	DataRoutesUntouched bool

	// Source-route MSB set at the destination interface: consumed and
	// handled as an error, without incident.
	RouteMSBConsumed   bool
	RouteMSBNoIncident bool

	// Misrouting: packets directed at the wrong switch port or host are
	// lost, but never accepted by the wrong node.
	MisrouteLost        bool
	MisrouteNotAccepted bool
}

// Sec432Options parameterizes the experiments.
type Sec432Options struct {
	Seed int64
	// Workers runs the four independent experiments concurrently; <= 1 is
	// serial. Results are identical either way.
	Workers int
}

// RunSec432 executes the four §4.3.2 experiments on fresh test beds. Each
// experiment builds its own testbed from its own seed and writes a disjoint
// set of result fields, so they fan out over the worker pool and merge.
func RunSec432(opts Sec432Options) Sec432Result {
	parts := RunTrials(4, opts.Workers, func(i int) Sec432Result {
		var r Sec432Result
		switch i {
		case 0:
			return runMappingCorruption(opts.Seed, r)
		case 1:
			return runDataTypeCorruption(opts.Seed+10, r)
		case 2:
			return runRouteMSB(opts.Seed+20, r)
		default:
			return runMisroute(opts.Seed+30, r)
		}
	})
	res := parts[0] // mapping fields
	res.DataPacketDropped = parts[1].DataPacketDropped
	res.DataRoutesUntouched = parts[1].DataRoutesUntouched
	res.RouteMSBConsumed = parts[2].RouteMSBConsumed
	res.RouteMSBNoIncident = parts[2].RouteMSBNoIncident
	res.MisrouteLost = parts[3].MisrouteLost
	res.MisrouteNotAccepted = parts[3].MisrouteNotAccepted
	return res
}

// runMappingCorruption corrupts the 0x0005 designator of the tapped node's
// scout replies during one mapping round: the mapper sees no response, so
// the node is removed from the network until the next round (§4.3.2).
func runMappingCorruption(seed int64, res Sec432Result) Sec432Result {
	const mapPeriod = 200 * sim.Millisecond
	tb := NewTestbed(TestbedConfig{Seed: seed, Mapping: true, MapPeriod: mapPeriod})
	tapMAC := tb.TapNode().MAC()
	other := tb.Nodes[1]

	// Sanity: route present after warmup.
	if _, ok := other.Interface().Route(tapMAC); !ok {
		return res // warmup failed; flags stay false
	}
	// Match the 4-byte mapping type field 00 00 00 05 and corrupt the
	// designator to 0x000B ("000x where x is a random value"). Armed for
	// exactly one round.
	tb.Configure(
		"DIR L", // outbound: the tapped node's scout replies
		"COMPARE 00 00 00 05",
		"CORRUPT REPLACE -- -- -- 0B",
		"CRC ON", // recompute the trailing CRC-8 so only the designator is wrong
		"MODE ON",
	)
	// One full round with corruption in force.
	tb.K.RunFor(mapPeriod + 50*sim.Millisecond)
	tb.ConfigureBothMode(false)

	removed := true
	if _, ok := other.Interface().Route(tapMAC); ok {
		removed = false
	}
	res.MappingNodeRemoved = removed

	// Sends to the removed node fail with no-route.
	before := other.Stats().NoRouteErrors
	other.SendUDP(tapMAC, 9000, 9001, []byte("to the missing node"))
	tb.K.RunFor(sim.Millisecond)
	res.MappingSendsFailed = other.Stats().NoRouteErrors - before

	// "The node will remain out of the network until the next mapping
	// packet is received": one clean round restores it.
	tb.K.RunFor(mapPeriod + 50*sim.Millisecond)
	_, ok := other.Interface().Route(tapMAC)
	res.MappingNodeRestored = ok
	return res
}

// runDataTypeCorruption corrupts a data packet's 0x0004 designator: the
// receiving node drops it and "the internal network structures, such as the
// routing table, remain unchanged".
func runDataTypeCorruption(seed int64, res Sec432Result) Sec432Result {
	const mapPeriod = 200 * sim.Millisecond
	tb := NewTestbed(TestbedConfig{Seed: seed, Mapping: true, MapPeriod: mapPeriod})
	tap := tb.TapNode()
	dst := tb.Nodes[1]
	routesBefore := fmt.Sprint(dst.Interface().Routes())

	tb.Configure(
		"DIR L",
		"COMPARE 00 00 00 04",
		"CORRUPT REPLACE -- -- -- 0B",
		"CRC ON",
		"MODE ONCE",
	)
	recvBefore := dst.Interface().Counters().PacketsReceived
	dropBefore := dst.Interface().Counters().Drops[myrinet.DropUnknownType]
	tap.SendUDP(dst.MAC(), 9000, 9001, []byte("typed wrong in flight"))
	tb.K.RunFor(5 * sim.Millisecond)

	res.DataPacketDropped = dst.Interface().Counters().Drops[myrinet.DropUnknownType] == dropBefore+1 &&
		dst.Interface().Counters().PacketsReceived == recvBefore
	// Let another mapping round pass; routes must be unchanged.
	tb.K.RunFor(mapPeriod + 50*sim.Millisecond)
	res.DataRoutesUntouched = fmt.Sprint(dst.Interface().Routes()) == routesBefore
	return res
}

// runRouteMSB sets the MSB of the final route byte on a packet arriving at
// the tapped node: the interface must consume it as an error "without
// incident, and without causing delays or other errors on the target node".
func runRouteMSB(seed int64, res Sec432Result) Sec432Result {
	tb := NewTestbed(TestbedConfig{Seed: seed})
	tap := tb.TapNode()
	src := tb.Nodes[1]
	r, err := host.NewCountingReceiver(tap, loadDstPort)
	if err != nil {
		panic(err)
	}

	// On the switch→host segment a packet head reads: final route byte
	// 0x00, then the type field's three zero bytes. Match that window
	// and set the route byte's MSB (position 0, the oldest window slot).
	tb.Configure(
		"DIR R",
		"COMPARE 00 00 00 00",
		"CORRUPT REPLACE 81 -- -- --",
		"MODE ONCE",
	)
	// The first packet is corrupted (once mode); two more prove the node
	// keeps working without incident.
	for i := 0; i < 3; i++ {
		src.SendUDP(tap.MAC(), 9000, 9001, []byte{byte('a' + i)})
	}
	tb.K.RunFor(10 * sim.Millisecond)

	res.RouteMSBConsumed = tap.Interface().Counters().Drops[myrinet.DropRouteMSB] == 1
	res.RouteMSBNoIncident = r.Received() == 2 // the other two arrive fine
	return res
}

// runMisroute corrupts the switch-hop route byte of the tapped node's
// outbound packets: "These errors resulted in the expected packet losses,
// but none of the packets were accepted by the incorrect nodes."
func runMisroute(seed int64, res Sec432Result) Sec432Result {
	tb := NewTestbed(TestbedConfig{Seed: seed})
	tap := tb.TapNode()
	right := tb.Nodes[1] // intended destination: switch port 1
	wrong := tb.Nodes[2]
	rRight, err := host.NewCountingReceiver(right, loadDstPort)
	if err != nil {
		panic(err)
	}
	rWrong, err := host.NewCountingReceiver(wrong, loadDstPort)
	if err != nil {
		panic(err)
	}

	// Outbound packets to node1 open with route byte 0x81 followed by
	// the type field's zeros; redirect the first one to port 2 (node2).
	tb.Configure(
		"DIR L",
		"COMPARE 81 00 00 00",
		"CORRUPT REPLACE 82 -- -- --",
		"CRC ON",
		"MODE ONCE",
	)
	for i := 0; i < 3; i++ {
		tap.SendUDP(right.MAC(), 9000, 9001, []byte{byte('a' + i)})
	}
	tb.K.RunFor(10 * sim.Millisecond)

	res.MisrouteLost = rRight.Received() == 2
	// The wrong node sees the packet but its interface drops it as
	// misaddressed — no bad data passes to a higher level.
	res.MisrouteNotAccepted = rWrong.Received() == 0 &&
		wrong.Interface().Counters().Drops[myrinet.DropMisaddressed] == 1
	return res
}

// FormatSec432 renders the result as pass/fail lines against the paper's
// observations.
func FormatSec432(r Sec432Result) string {
	check := func(b bool) string {
		if b {
			return "reproduced"
		}
		return "NOT reproduced"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mapping packet 0x0005->0x000x: node removed from network: %s\n", check(r.MappingNodeRemoved))
	fmt.Fprintf(&b, "  sends to removed node fail (no route): %d\n", r.MappingSendsFailed)
	fmt.Fprintf(&b, "  node restored by the next mapping round: %s\n", check(r.MappingNodeRestored))
	fmt.Fprintf(&b, "data packet 0x0004->unknown: dropped by receiver: %s\n", check(r.DataPacketDropped))
	fmt.Fprintf(&b, "  routing tables unchanged: %s\n", check(r.DataRoutesUntouched))
	fmt.Fprintf(&b, "route MSB at interface: consumed as error: %s\n", check(r.RouteMSBConsumed))
	fmt.Fprintf(&b, "  no delays or other errors on the target: %s\n", check(r.RouteMSBNoIncident))
	fmt.Fprintf(&b, "misrouted packets: lost as expected: %s\n", check(r.MisrouteLost))
	fmt.Fprintf(&b, "  never accepted by the wrong node: %s\n", check(r.MisrouteNotAccepted))
	return b.String()
}
