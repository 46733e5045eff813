package host

import (
	"bytes"
	"testing"
	"testing/quick"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

func mac(b byte) myrinet.MAC { return myrinet.MAC{0x02, 0, 0, 0, 0, b} }

// twoNodeNet wires two nodes through an 8-port switch with static routes.
func twoNodeNet(t *testing.T, k *sim.Kernel) (*Node, *Node) {
	t.Helper()
	net := myrinet.NewNetwork(k)
	sw := net.AddSwitch("sw0", 8)
	a := NewNode(k, NodeConfig{Name: "A", MAC: mac(1), ID: 1})
	b := NewNode(k, NodeConfig{Name: "B", MAC: mac(2), ID: 2})
	net.ConnectHost(a.Interface(), sw, 0)
	net.ConnectHost(b.Interface(), sw, 1)
	a.Interface().SetRoute(b.MAC(), myrinet.RouteTo(1))
	b.Interface().SetRoute(a.MAC(), myrinet.RouteTo(0))
	return a, b
}

func TestUDPEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(srcPort, dstPort uint16, data []byte) bool {
		if len(data) > 1400 {
			data = data[:1400]
		}
		s, d, got, err := DecodeUDP(EncodeUDP(srcPort, dstPort, data))
		return err == nil && s == srcPort && d == dstPort && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestUDPChecksumDetectsCorruption(t *testing.T) {
	dgram := EncodeUDP(1, 2, []byte("payload under test"))
	dgram[10] ^= 0x20
	if _, _, _, err := DecodeUDP(dgram); err != errChecksum {
		t.Errorf("err = %v, want checksum error", err)
	}
}

func TestUDPChecksumBlindToAlignedSwap(t *testing.T) {
	// The §4.3.4 signature fault: bytes 16 bits apart swap undetected.
	dgram := EncodeUDP(1, 2, []byte("Have a lot of fun"))
	i := udpHeaderLen
	dgram[i], dgram[i+2] = dgram[i+2], dgram[i]
	dgram[i+1], dgram[i+3] = dgram[i+3], dgram[i+1]
	_, _, data, err := DecodeUDP(dgram)
	if err != nil {
		t.Fatalf("aligned swap rejected: %v", err)
	}
	if string(data) != "veHa a lot of fun" {
		t.Errorf("data = %q, want %q", data, "veHa a lot of fun")
	}
}

func TestNodeSendReceive(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := twoNodeNet(t, k)
	var got []byte
	var gotSrc myrinet.MAC
	if _, err := b.Bind(9001, func(src myrinet.MAC, srcPort uint16, data []byte) {
		got = append([]byte(nil), data...)
		gotSrc = src
	}); err != nil {
		t.Fatal(err)
	}
	a.SendUDP(b.MAC(), 9000, 9001, []byte("hello udp"))
	k.Run()
	if string(got) != "hello udp" {
		t.Fatalf("received %q", got)
	}
	if gotSrc != a.MAC() {
		t.Errorf("src = %v, want %v", gotSrc, a.MAC())
	}
	if a.Stats().UDPSent != 1 || b.Stats().UDPReceived != 1 {
		t.Errorf("stats: %+v / %+v", a.Stats(), b.Stats())
	}
}

func TestNodeUnboundPortDropped(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := twoNodeNet(t, k)
	a.SendUDP(b.MAC(), 9000, 4242, []byte("nobody home"))
	k.Run()
	if b.Stats().NoSocketDrops != 1 {
		t.Errorf("NoSocketDrops = %d, want 1", b.Stats().NoSocketDrops)
	}
}

func TestNodeDoubleBindFails(t *testing.T) {
	k := sim.NewKernel(1)
	a, _ := twoNodeNet(t, k)
	if _, err := a.Bind(5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(5, nil); err == nil {
		t.Error("double bind succeeded")
	}
}

func TestNodeSocketBufferOverflow(t *testing.T) {
	k := sim.NewKernel(1)
	// Tiny socket buffer and slow receiver: a fast burst must overflow.
	net := myrinet.NewNetwork(k)
	sw := net.AddSwitch("sw0", 8)
	a := NewNode(k, NodeConfig{Name: "A", MAC: mac(1), ID: 1, SendOverhead: sim.Microsecond})
	b := NewNode(k, NodeConfig{Name: "B", MAC: mac(2), ID: 2, SocketBuffer: 4, RecvOverhead: sim.Millisecond})
	net.ConnectHost(a.Interface(), sw, 0)
	net.ConnectHost(b.Interface(), sw, 1)
	a.Interface().SetRoute(b.MAC(), myrinet.RouteTo(1))
	if _, err := b.Bind(9001, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a.SendUDP(b.MAC(), 9000, 9001, []byte("burst"))
	}
	k.Run()
	st := b.Stats()
	if st.OverflowDrops == 0 {
		t.Error("no overflow drops despite tiny socket buffer")
	}
	if st.UDPReceived+st.OverflowDrops != 20 {
		t.Errorf("received %d + dropped %d != 20", st.UDPReceived, st.OverflowDrops)
	}
}

func TestNodeSendSerialization(t *testing.T) {
	// Two back-to-back sends must reach the NIC one SendOverhead apart.
	k := sim.NewKernel(1)
	a, b := twoNodeNet(t, k)
	var times []sim.Time
	if _, err := b.Bind(9001, func(myrinet.MAC, uint16, []byte) {
		times = append(times, k.Now())
	}); err != nil {
		t.Fatal(err)
	}
	a.SendUDP(b.MAC(), 9000, 9001, []byte("one"))
	a.SendUDP(b.MAC(), 9000, 9001, []byte("two"))
	k.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d, want 2", len(times))
	}
	gap := times[1] - times[0]
	if gap < 90*sim.Microsecond {
		t.Errorf("inter-delivery gap %v; sends not serialized by CPU overhead", gap)
	}
}

func TestInterruptTickQuantization(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, NodeConfig{Name: "q", MAC: mac(9), ID: 9, InterruptTick: sim.Microsecond, TickPhase: 300 * sim.Nanosecond})
	got := n.quantize(2_500_000) // 2.5 us
	// Grid: 0.3, 1.3, 2.3, 3.3 us -> 3.3 us.
	if got != 3_300_000 {
		t.Errorf("quantize(2.5us) = %v, want 3.3us", got)
	}
	// Exactly on a boundary stays put.
	if q := n.quantize(3_300_000); q != 3_300_000 {
		t.Errorf("quantize(3.3us) = %v, want 3.3us", q)
	}
}

func TestPingPongMeasuresPerPacketTime(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := twoNodeNet(t, k)
	var res PingPongResult
	PingPong(k, a, b, 50, 32, func(r PingPongResult) { res = r })
	k.Run()
	if res.Rounds != 50 {
		t.Fatalf("rounds = %d, want 50", res.Rounds)
	}
	// Per-packet time must be near the stack overheads (~230 us), the
	// Table 2 regime.
	if res.PerPacket < 200*sim.Microsecond || res.PerPacket > 300*sim.Microsecond {
		t.Errorf("PerPacket = %v, want ~235us", res.PerPacket)
	}
}

func TestCountingReceiver(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := twoNodeNet(t, k)
	r, err := NewCountingReceiver(b, 9001)
	if err != nil {
		t.Fatal(err)
	}
	a.SendUDP(b.MAC(), 9000, 9001, make([]byte, 10))
	a.SendUDP(b.MAC(), 9000, 9001, make([]byte, 20))
	k.Run()
	if r.Received() != 2 || r.Bytes() != 30 {
		t.Errorf("received=%d bytes=%d, want 2/30", r.Received(), r.Bytes())
	}
}
