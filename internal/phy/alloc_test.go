package phy

import (
	"testing"

	"netfi/internal/sim"
)

// releasingSink consumes deliveries and returns the buffers to its
// kernel's arena, as an arena-aware receiver does.
type releasingSink struct {
	k     *sim.Kernel
	chars uint64
}

func (s *releasingSink) Receive(chars []Character) {
	s.chars += uint64(len(chars))
	ReleaseBurst(s.k, chars)
}

// Link delivery is the single hottest edge in a campaign: every character of
// every packet crosses at least two links. After the pools warm up, a
// send/deliver cycle must not allocate at all.
func TestLinkDeliveryZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	sink := &releasingSink{k: k}
	link := NewLink(k, LinkConfig{Name: "alloc", CharPeriod: 12_500 * sim.Picosecond, PropDelay: 5 * sim.Nanosecond}, sink)
	burst := make([]Character, 64)
	for i := range burst {
		burst[i] = DataChar(byte(i))
	}
	cycle := func() {
		link.Send(burst)
		link.SendOne(ControlChar(0x0C))
		link.SendPriorityOne(ControlChar(0x09))
		k.Run()
	}
	for i := 0; i < 100; i++ {
		cycle() // warm the arena and the event pool
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("link delivery cycle allocates %.2f objects/op, want 0", avg)
	}
	if sink.chars == 0 {
		t.Fatal("sink received nothing")
	}
}

func TestBurstPoolRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	b := GetBurst(k, 100)
	if len(b) != 100 {
		t.Fatalf("len = %d, want 100", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want the 128 size class", cap(b))
	}
	ReleaseBurst(k, b)
	b2 := GetBurst(k, 65)
	if cap(b2) != 128 {
		t.Fatalf("cap after recycle = %d, want 128", cap(b2))
	}
	if &b2[0] != &b[0] {
		t.Error("GetBurst did not reuse the released buffer")
	}
	// Foreign and undersized slices are ignored, never pooled.
	ReleaseBurst(k, make([]Character, 5))
	ReleaseBurst(k, make([]Character, 0, 100))
	ReleaseBurst(k, nil)
	if got := GetBurst(k, 0); got != nil {
		t.Errorf("GetBurst(0) = %v, want nil", got)
	}
	// Oversize requests fall through to plain allocation.
	big := GetBurst(k, 1<<17)
	if len(big) != 1<<17 {
		t.Fatalf("oversize len = %d", len(big))
	}
	ReleaseBurst(k, big) // ignored: above the largest class
	for c, free := range arenaOf(k).free {
		if len(free) != 0 {
			t.Errorf("class %d holds %d foreign buffers", c, len(free))
		}
	}
}

// Arenas are per kernel: a buffer released into one kernel's arena is never
// handed out by another's.
func TestArenasArePerKernel(t *testing.T) {
	ka, kb := sim.NewKernel(1), sim.NewKernel(2)
	b := GetBurst(ka, 32)
	ReleaseBurst(kb, b)
	if got := GetBurst(ka, 32); &got[0] == &b[0] {
		t.Error("kernel A reused a buffer released into kernel B's arena")
	}
	if got := GetBurst(kb, 32); &got[0] != &b[0] {
		t.Error("kernel B did not reuse the buffer released into its arena")
	}
}

// A one-way flow — a sender on one kernel, the consumer on another, as on a
// cross-shard cable carrying traffic in one direction only — moves every
// buffer into the consumer's arena. The per-class cap must stop that arena
// growing past it.
func TestArenaCapBoundsOneWayFlow(t *testing.T) {
	ka, kb := sim.NewKernel(1), sim.NewKernel(2)
	for _, n := range []int{1, 100, 5000, 1 << maxBurstBits} {
		c := burstClassFor(n)
		limit := arenaClassChars >> c
		for i := 0; i < limit+50; i++ {
			ReleaseBurst(kb, GetBurst(ka, n))
		}
		if got := len(arenaOf(kb).free[c]); got != limit {
			t.Errorf("%d-char class holds %d free buffers after a one-way flow, want the cap %d", n, got, limit)
		}
		if got := len(arenaOf(ka).free[c]); got != 0 {
			t.Errorf("sending arena holds %d buffers of a flow it never consumed", got)
		}
	}
}

// A cloned kernel owns a fresh arena: a pending delivery is copied into a
// buffer of the fork's own, and the two worlds then recycle independently.
func TestCloneStartsWithEmptyArena(t *testing.T) {
	k := sim.NewKernel(1)
	sink := &releasingSink{k: k}
	link := NewLink(k, LinkConfig{Name: "fork", CharPeriod: 12_500 * sim.Picosecond}, sink)
	ReleaseBurst(k, GetBurst(k, 16)) // a warm arena in the old world
	link.Send([]Character{DataChar(1), DataChar(2), DataChar(3)})

	m := sim.NewMapper()
	k2 := k.Clone(m)
	if k2.Local() != nil {
		t.Fatal("cloned kernel inherited the kernel-local arena")
	}
	sink2 := &releasingSink{k: k2}
	m.Put(sink, sink2)
	link.Clone(m)
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if arenaOf(k2) == arenaOf(k) {
		t.Fatal("fork shares the old world's arena")
	}
	k.Run()
	k2.Run()
	if sink.chars != 3 || sink2.chars != 3 {
		t.Fatalf("delivered %d chars in the old world and %d in the fork, want 3 each", sink.chars, sink2.chars)
	}
	if got := len(arenaOf(k2).free[minBurstBits]); got != 1 {
		t.Errorf("fork arena holds %d free buffers, want the one its delivery released", got)
	}
}
