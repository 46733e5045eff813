package myrinet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"netfi/internal/phy"
)

// slackTwin is one side of the PushRun/Push differential: a slack buffer
// whose callbacks log the buffer state they observe and, on some calls,
// pop characters from inside the callback.
type slackTwin struct {
	s      *SlackBuffer
	log    []string
	calls  int
	popped []phy.Character
}

func newSlackTwin(capacity, high, low int) *slackTwin {
	tw := &slackTwin{}
	tw.s = NewSlackBuffer(capacity, high, low, func() { tw.callback("stop") }, func() { tw.callback("go") })
	return tw
}

// callback records the call and pops 0-2 characters, a pure function of the
// call's ordinal, so both twins act identically if called identically.
func (tw *slackTwin) callback(kind string) {
	tw.log = append(tw.log, fmt.Sprintf("%s len=%d pushes=%d overflow=%d", kind, tw.s.Len(), tw.s.Pushes(), tw.s.Overflow()))
	tw.calls++
	if kind == "stop" {
		for i := 0; i < tw.calls%3; i++ {
			if c, ok := tw.s.Pop(); ok {
				tw.popped = append(tw.popped, c)
			}
		}
	}
}

func (tw *slackTwin) contents() []phy.Character {
	out := make([]phy.Character, tw.s.count)
	for i := range out {
		out[i] = tw.s.buf[(tw.s.head+i)&(len(tw.s.buf)-1)]
	}
	return out
}

// PushRun must have exactly the effect of per-character Push: over random
// geometries and runs that straddle the ring wrap, the high watermark and
// the capacity, both buffers must agree on every counter, on the order and
// observed state of every onStop/onGo call, and on their contents.
func TestPushRunMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var wrapped, crossed, overflowed int
	for trial := 0; trial < 400; trial++ {
		capacity := 1 + rng.Intn(160)
		high := 1 + rng.Intn(capacity)
		low := rng.Intn(high)
		run, each := newSlackTwin(capacity, high, low), newSlackTwin(capacity, high, low)
		for op := 0; op < 60; op++ {
			if rng.Intn(3) == 0 {
				// Drain some, so later runs start at varied ring offsets.
				n := rng.Intn(run.s.Len() + 1)
				run.s.Discard(n)
				each.s.Discard(n)
				continue
			}
			chars := make([]phy.Character, rng.Intn(2*capacity+2))
			for i := range chars {
				chars[i] = phy.DataChar(byte(rng.Intn(256)))
			}
			if tail := (run.s.head + run.s.count) & (len(run.s.buf) - 1); tail+len(chars) > len(run.s.buf) && run.s.count+len(chars) <= len(run.s.buf) {
				wrapped++
			}
			if !run.s.Stopping() && run.s.Len() < high && run.s.Len()+len(chars) >= high {
				crossed++
			}
			if run.s.Len()+len(chars) > capacity {
				overflowed++
			}
			got := run.s.PushRun(chars)
			want := 0
			for _, c := range chars {
				if each.s.Push(c) {
					want++
				}
			}
			if got != want {
				t.Fatalf("trial %d op %d: PushRun accepted %d, Push accepted %d", trial, op, got, want)
			}
			if run.s.Pushes() != each.s.Pushes() || run.s.Overflow() != each.s.Overflow() ||
				run.s.Len() != each.s.Len() || run.s.Stopping() != each.s.Stopping() {
				t.Fatalf("trial %d op %d: counters differ: run pushes=%d overflow=%d len=%d stopping=%v; push pushes=%d overflow=%d len=%d stopping=%v",
					trial, op, run.s.Pushes(), run.s.Overflow(), run.s.Len(), run.s.Stopping(),
					each.s.Pushes(), each.s.Overflow(), each.s.Len(), each.s.Stopping())
			}
			if !reflect.DeepEqual(run.log, each.log) {
				t.Fatalf("trial %d op %d: callbacks differ:\nPushRun %q\nPush    %q", trial, op, run.log, each.log)
			}
			if !reflect.DeepEqual(run.contents(), each.contents()) || !reflect.DeepEqual(run.popped, each.popped) {
				t.Fatalf("trial %d op %d: buffer contents differ", trial, op)
			}
		}
	}
	if wrapped == 0 || crossed == 0 || overflowed == 0 {
		t.Fatalf("coverage: %d runs wrapped the ring, %d crossed the high watermark, %d overflowed; want all > 0", wrapped, crossed, overflowed)
	}
}
