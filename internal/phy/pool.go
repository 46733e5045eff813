package phy

import (
	"math/bits"

	"netfi/internal/sim"
)

// Burst arenas. Every burst a link delivers is copied into a buffer from the
// arena of the sending link's kernel, and a buffer goes back to an arena only
// when its receiver explicitly hands it over with ReleaseBurst — so a
// receiver that retains the slice is always safe: the buffer simply never
// returns and the garbage collector reclaims it.
//
// Each sim.Kernel owns one arena (kept in the kernel's Local slot), touched
// only by the goroutine running that kernel, so the arena needs no locks. A
// receiver releases into its own kernel's arena, which for a cross-shard
// cable is not the arena the buffer came from; a fixed per-class cap keeps
// such a one-way flow from growing the receiving arena without bound. The
// barrier exchange takes its delivery records from the destination kernel's
// arena, which is safe because every shard is parked at the barrier. A
// cloned kernel starts with an empty arena.
//
// Buffers are size-classed by power-of-two capacity.

const (
	minBurstBits = 4  // smallest pooled class: 16 characters
	maxBurstBits = 16 // largest pooled class: 65536 characters

	// arenaClassChars caps the characters one size class keeps free: at
	// most arenaClassChars>>class buffers (16384 of the smallest class, 4
	// of the largest). Releases beyond the cap fall to the GC.
	arenaClassChars = 1 << 18
)

// arena is one kernel's burst and delivery free lists.
type arena struct {
	free       [maxBurstBits + 1][][]Character
	deliveries *delivery
}

// arenaOf returns k's arena, creating it on first use.
func arenaOf(k *sim.Kernel) *arena {
	if a, ok := k.Local().(*arena); ok {
		return a
	}
	a := new(arena)
	k.SetLocal(a)
	return a
}

func burstClassFor(n int) int {
	c := bits.Len(uint(n - 1)) // ceil(log2 n) for n > 1
	if c < minBurstBits {
		c = minBurstBits
	}
	return c
}

// GetBurst returns a buffer of length n from k's arena, recycled when one is
// free. The contents are unspecified; callers overwrite them.
func GetBurst(k *sim.Kernel, n int) []Character {
	if n <= 0 {
		return nil
	}
	if n > 1<<maxBurstBits {
		return make([]Character, n)
	}
	c := burstClassFor(n)
	a := arenaOf(k)
	if last := len(a.free[c]) - 1; last >= 0 {
		b := a.free[c][last]
		a.free[c][last] = nil
		a.free[c] = a.free[c][:last]
		return b[:n]
	}
	return make([]Character, n, 1<<c)
}

// ReleaseBurst returns a delivered burst to the arena of k, the kernel that
// consumed it. Callers must release exactly the slice they were handed, must
// not touch it afterwards, and must not release a buffer twice. Releasing is
// always optional — an unreleased buffer is collected by the GC — and
// foreign slices whose capacity is not a pooled power of two are ignored.
func ReleaseBurst(k *sim.Kernel, b []Character) {
	c := cap(b)
	if c < 1<<minBurstBits || c > 1<<maxBurstBits || c&(c-1) != 0 {
		return
	}
	cl := bits.Len(uint(c)) - 1
	a := arenaOf(k)
	if len(a.free[cl]) >= arenaClassChars>>cl {
		return
	}
	a.free[cl] = append(a.free[cl], b[:0])
}

// delivery carries one pending Receive call through the kernel without a
// closure. Deliveries recycle through the arena of the kernel they fire on.
type delivery struct {
	dst   Receiver
	chars []Character
	home  *arena
	next  *delivery
}

func (a *arena) delivery(dst Receiver, chars []Character) *delivery {
	d := a.deliveries
	if d != nil {
		a.deliveries = d.next
		d.next = nil
	} else {
		d = &delivery{home: a}
	}
	d.dst, d.chars = dst, chars
	return d
}

func deliverBurst(x any) {
	d := x.(*delivery)
	dst, chars := d.dst, d.chars
	d.dst, d.chars = nil, nil
	d.next = d.home.deliveries
	d.home.deliveries = d
	dst.Receive(chars)
}

// ScheduleReceive schedules dst.Receive(chars) at virtual time at, passing
// ownership of chars to the receiver. It is the allocation-free spelling of
// k.At(at, func() { dst.Receive(chars) }) and is exported so devices that
// forward pooled buffers (e.g. the injector's ports) can reuse it.
func ScheduleReceive(k *sim.Kernel, at sim.Time, dst Receiver, chars []Character) sim.EventID {
	return k.AtArg(at, deliverBurst, arenaOf(k).delivery(dst, chars))
}

// ScheduleReceiveExt is ScheduleReceive for externally-ordered deliveries:
// the event carries the sending channel's (rank, seq) stamp so the kernel
// fires same-time deliveries in a partition-independent order (see
// sim.Kernel.AtExt). Used by the sharded fabric's exchange and DirectEnd
// paths.
func ScheduleReceiveExt(k *sim.Kernel, at sim.Time, rank uint32, seq uint64, dst Receiver, chars []Character) sim.EventID {
	return k.AtExt(at, rank, seq, deliverBurst, arenaOf(k).delivery(dst, chars))
}
