package myrinet

import (
	"testing"

	"netfi/internal/phy"
	"netfi/internal/sim"
)

// nullSink absorbs the controller's transmissions and recycles the bursts
// into its kernel's arena.
type nullSink struct{ k *sim.Kernel }

func (s nullSink) Receive(chars []phy.Character) { phy.ReleaseBurst(s.k, chars) }

// allocTap is a minimal monitoring tap: it looks at every character without
// retaining the slice, the contract real taps follow.
type allocTap struct {
	chars  uint64
	bursts uint64
}

func (t *allocTap) ObserveChars(_ sim.Time, chars []phy.Character) {
	t.bursts++
	t.chars += uint64(len(chars))
}

func receiveCycleController(k *sim.Kernel) *LinkController {
	out := phy.NewLink(k, phy.LinkConfig{
		Name:       "alloc.out",
		CharPeriod: 12_500 * sim.Picosecond,
		PropDelay:  5 * sim.Nanosecond,
	}, nullSink{k})
	return NewLinkController(k, LinkControllerConfig{
		Name:     "alloc.lc",
		Out:      out,
		Counters: NewCounters(),
	})
}

// runReceiveCycle delivers one arena data burst to lc and drains the slack
// so watermarks never trip.
func runReceiveCycle(k *sim.Kernel, lc *LinkController) {
	burst := phy.GetBurst(k, 32)
	for i := range burst {
		burst[i] = phy.DataChar(0x55)
	}
	lc.Receive(burst) // Receive releases the burst
	lc.Discard(lc.Buffered())
	k.Run()
}

// The satellite guard for the monitoring plane: a controller WITHOUT a tap
// must stay exactly as allocation-free as before the tap hook existed —
// monitoring off costs one nil check and nothing else.
func TestReceiveNoTapZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	lc := receiveCycleController(k)
	for i := 0; i < 100; i++ {
		runReceiveCycle(k, lc) // warm the arena
	}
	if avg := testing.AllocsPerRun(200, func() { runReceiveCycle(k, lc) }); avg != 0 {
		t.Errorf("untapped receive cycle allocates %.2f objects/op, want 0", avg)
	}
}

// With a (well-behaved) tap attached the cycle must still be
// allocation-free: taps observe batches in place.
func TestReceiveTappedZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	lc := receiveCycleController(k)
	tap := &allocTap{}
	lc.SetTap(tap)
	for i := 0; i < 100; i++ {
		runReceiveCycle(k, lc)
	}
	if avg := testing.AllocsPerRun(200, func() { runReceiveCycle(k, lc) }); avg != 0 {
		t.Errorf("tapped receive cycle allocates %.2f objects/op, want 0", avg)
	}
	if tap.bursts == 0 || tap.chars == 0 {
		t.Fatal("tap observed nothing")
	}
}
