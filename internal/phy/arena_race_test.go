package phy

import (
	"sync"
	"testing"

	"netfi/internal/sim"
)

// echoEnd consumes bursts on its own kernel, releases each into that
// kernel's arena, and answers on its outgoing link until its budget is spent.
type echoEnd struct {
	k       *sim.Kernel
	out     *Link
	scratch []Character
	budget  int
	got     uint64
}

func (e *echoEnd) Receive(chars []Character) {
	e.got += uint64(len(chars))
	n := 1 + int(chars[0].Byte())%len(e.scratch)
	ReleaseBurst(e.k, chars)
	if e.budget > 0 {
		e.budget--
		e.out.Send(e.scratch[:n])
	}
}

// Two kernels on two goroutines trade bursts through an ExchangeSet across
// barriers, each consuming into its own arena. Run under -race: a burst's
// buffer crosses goroutines only inside a delivery, the exchange touches the
// destination kernel's arena only at the barrier, and every other arena
// access stays on the arena's own goroutine.
func TestArenaExchangeRace(t *testing.T) {
	const lookahead = 100 * sim.Nanosecond
	set := NewExchangeSet(2)
	ks := [2]*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}
	var ends [2]*echoEnd
	for i := range ends {
		ends[i] = &echoEnd{k: ks[i], scratch: make([]Character, 200), budget: 400}
		for j := range ends[i].scratch {
			ends[i].scratch[j] = DataChar(byte(7*j + i))
		}
	}
	cfg := LinkConfig{CharPeriod: sim.Nanosecond, PropDelay: lookahead}
	for i := range ends {
		l := NewLink(ks[i], cfg, ends[1-i])
		l.SetDeliverySink(NewChannelEnd(set.Box(i), ks[1-i], uint32(i)))
		ends[i].out = l
	}
	for i := range ends {
		for n := 1; n <= 8; n++ {
			e := ends[i]
			ks[i].At(sim.Time(n), func() { e.out.Send(e.scratch[:n*n]) })
		}
	}

	for w := 1; w <= 4000; w++ {
		h := sim.Time(w) * lookahead
		var wg sync.WaitGroup
		for i := range ks {
			wg.Add(1)
			go func(k *sim.Kernel) {
				defer wg.Done()
				k.RunUntil(h)
			}(ks[i])
		}
		wg.Wait()
		set.Exchange()
		if ks[0].Pending() == 0 && ks[1].Pending() == 0 {
			break
		}
	}
	for i, e := range ends {
		if e.budget != 0 || ks[i].Pending() != 0 {
			t.Fatalf("end %d did not finish: budget %d, %d events pending", i, e.budget, ks[i].Pending())
		}
		sent, _ := e.out.Stats()
		if got := ends[1-i].got; got != sent {
			t.Errorf("end %d sent %d chars, its peer consumed %d", i, sent, got)
		}
		held := 0
		for _, free := range arenaOf(ks[i]).free {
			held += len(free)
		}
		if held == 0 {
			t.Errorf("kernel %d's arena holds no released buffers", i)
		}
	}
}
