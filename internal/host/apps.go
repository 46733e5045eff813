package host

import (
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// PingPongResult summarizes one latency experiment: the paper's Table 2
// methodology (two nodes exchanging small UDP packets, each side waiting
// for the other's packet before sending).
type PingPongResult struct {
	Rounds      int
	TotalTime   sim.Duration
	PerPacket   sim.Duration // average time per packet (Table 2's metric)
	LostTimeout bool         // the exchange wedged before finishing
}

// PingPong runs a ping-pong exchange of rounds small packets between a and
// b, starting when the kernel reaches start. The returned result is valid
// after the kernel has run past the experiment.
func PingPong(k *sim.Kernel, a, b *Node, rounds int, payload int, done func(PingPongResult)) {
	const portA, portB = 7001, 7002
	data := make([]byte, payload)
	var began sim.Time
	completed := 0

	sockB, err := b.Bind(portB, nil)
	if err != nil {
		panic(err)
	}
	sockB.handler = func(src myrinet.MAC, srcPort uint16, d []byte) {
		// Echo back immediately (the remote waits for it).
		b.SendUDP(a.MAC(), portB, portA, d)
	}
	var sockA *Socket
	sockA, err = a.Bind(portA, nil)
	if err != nil {
		panic(err)
	}
	sockA.handler = func(src myrinet.MAC, srcPort uint16, d []byte) {
		completed++
		if completed >= rounds {
			total := k.Now() - began
			res := PingPongResult{
				Rounds:    completed,
				TotalTime: total,
				// Two packets cross the network per round.
				PerPacket: total / sim.Duration(2*rounds),
			}
			sockA.Close()
			sockB.Close()
			done(res)
			return
		}
		a.SendUDP(b.MAC(), portA, portB, d)
	}
	began = k.Now()
	a.SendUDP(b.MAC(), portA, portB, data)
}

// CountingReceiver binds a port and counts what arrives, the measurement
// side of every campaign.
type CountingReceiver struct {
	sock  *Socket
	bytes uint64
}

// NewCountingReceiver binds port on node.
func NewCountingReceiver(node *Node, port uint16) (*CountingReceiver, error) {
	r := &CountingReceiver{}
	sock, err := node.Bind(port, func(_ myrinet.MAC, _ uint16, data []byte) {
		r.bytes += uint64(len(data))
	})
	if err != nil {
		return nil, err
	}
	r.sock = sock
	return r, nil
}

// Received reports delivered datagrams.
func (r *CountingReceiver) Received() uint64 { return r.sock.Received() }

// Bytes reports delivered payload bytes.
func (r *CountingReceiver) Bytes() uint64 { return r.bytes }

// Close releases the port.
func (r *CountingReceiver) Close() { r.sock.Close() }

// Heartbeat is the liveness beacon the monitoring plane's accrual failure
// detectors calibrate against: small fixed-interval datagrams to one peer,
// bounded by a horizon so that quiescence-based campaigns still drain. The
// payload byte stays clear of every control-symbol code, preserving the
// workload discipline fault campaigns rely on.
type Heartbeat struct {
	k        *sim.Kernel
	node     *Node
	dst      myrinet.MAC
	srcPort  uint16
	dstPort  uint16
	interval sim.Duration
	payload  []byte
	until    sim.Time

	sent    uint64
	running bool
}

// HeartbeatConfig parameterizes a beacon.
type HeartbeatConfig struct {
	// Dst is the monitored peer's address.
	Dst myrinet.MAC
	// SrcPort and DstPort are the UDP ports (defaults 7100/7100).
	SrcPort, DstPort uint16
	// Interval is the beacon period. Zero selects 2 ms.
	Interval sim.Duration
	// Until, when nonzero, is the absolute simulation time past which no
	// beacon is sent: the horizon that lets hang detectors see the event
	// queue drain. Zero runs until Stop.
	Until sim.Time
	// Size is the payload length. Zero selects 8.
	Size int
}

// HeartbeatPort is the conventional beacon port.
const HeartbeatPort = 7100

// NewHeartbeat builds a beacon on node.
func NewHeartbeat(k *sim.Kernel, node *Node, cfg HeartbeatConfig) *Heartbeat {
	if cfg.Interval == 0 {
		cfg.Interval = 2 * sim.Millisecond
	}
	if cfg.Size == 0 {
		cfg.Size = 8
	}
	if cfg.SrcPort == 0 {
		cfg.SrcPort = HeartbeatPort
	}
	if cfg.DstPort == 0 {
		cfg.DstPort = HeartbeatPort
	}
	payload := make([]byte, cfg.Size)
	for i := range payload {
		payload[i] = 0x48 // 'H', clear of all control codes
	}
	return &Heartbeat{
		k:        k,
		node:     node,
		dst:      cfg.Dst,
		srcPort:  cfg.SrcPort,
		dstPort:  cfg.DstPort,
		interval: cfg.Interval,
		payload:  payload,
		until:    cfg.Until,
	}
}

// Start begins beaconing; the first beat goes out immediately.
func (h *Heartbeat) Start() {
	if h.running {
		return
	}
	h.running = true
	h.beat()
}

// Stop halts the beacon.
func (h *Heartbeat) Stop() { h.running = false }

// Sent reports beacons handed to the stack.
func (h *Heartbeat) Sent() uint64 { return h.sent }

func (h *Heartbeat) beat() {
	if !h.running {
		return
	}
	if h.until != 0 && h.k.Now() > h.until {
		h.running = false
		return
	}
	h.node.SendUDP(h.dst, h.srcPort, h.dstPort, h.payload)
	h.sent++
	if h.until != 0 && h.k.Now()+sim.Time(h.interval) > h.until {
		h.running = false
		return
	}
	h.k.AfterArg(h.interval, heartbeatBeat, h)
}

func heartbeatBeat(a any) { a.(*Heartbeat).beat() }
