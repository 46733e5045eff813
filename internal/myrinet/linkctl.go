package myrinet

import (
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// LinkController implements the per-port link protocol shared by switch
// ports and host interfaces: the transmit side paces packets in small chunks
// gated by remote STOP/GO with the short-period (act-as-GO) and long-period
// (terminate packet) timeouts; the receive side classifies incoming
// characters — flow-control symbols act immediately on the transmitter,
// data and GAP characters enter the slack buffer, IDLEs are discarded — and
// generates STOP/GO from the slack watermarks.
//
// The zero value is not usable; construct with NewLinkController.
type LinkController struct {
	k    *sim.Kernel
	name string
	out  *phy.Link
	ctr  *Counters

	// Transmit side.
	paused      bool
	shortTimer  *sim.Timer
	longTimer   *sim.Timer
	txq         []*txPacket // FIFO; entries before txHead are popped
	txHead      int
	cur         *txPacket
	curPos      int
	txScheduled bool
	freeTx      *txPacket // recycled queue entries

	// Streaming transmit side (used by switch ports for cut-through
	// forwarding; mutually exclusive with the packet queue in practice).
	streamBuf     []phy.Character
	streamPos     int
	txDrainNotify func()

	// Receive side.
	slack        *SlackBuffer
	refreshEvent sim.EventID
	refreshOn    bool
	notify       func() // consumer callback: data available in slack

	// Recovery layer (inactive unless recovery.Enabled).
	recovery     RecoveryConfig
	stopWatchdog *sim.Timer // continuous-STOP deadline
	onReset      func()     // consumer callback: link reset, abort in-flight state

	// Monitoring tap (nil unless a monitor attached one).
	tap Tap
}

// txPacket is one queued packet: its encoded character stream (including the
// trailing GAP) and a completion callback. Completion comes in two forms:
// the closure form (onDone) for tests and ad-hoc senders, and the interface
// form (done) for registered model objects. Only the interface form survives
// a fork — a closure's captures cannot be rebound to the new world. An owned
// stream came from the kernel's arena and goes back to it when the packet
// finishes; the entry itself goes back to the controller's free list.
type txPacket struct {
	chars  []phy.Character
	owned  bool
	onDone func(terminated bool)
	done   TxCompletion
	next   *txPacket // free-list link
}

// TxCompletion receives packet-completion notifications: terminated=false
// when the last character was handed to the link, terminated=true when the
// long-period timeout (or stop watchdog) killed the packet. Implementations
// that are registered model objects remap cleanly across a fork.
type TxCompletion interface {
	TxDone(terminated bool)
}

// finish runs p's completion, then recycles its stream and the entry.
func (lc *LinkController) finish(p *txPacket, terminated bool) {
	if p.onDone != nil {
		p.onDone(terminated)
	}
	if p.done != nil {
		p.done.TxDone(terminated)
	}
	if p.owned {
		phy.ReleaseBurst(lc.k, p.chars)
	}
	*p = txPacket{next: lc.freeTx}
	lc.freeTx = p
}

// LinkControllerConfig parameterizes a controller.
type LinkControllerConfig struct {
	// Name labels the controller in traces.
	Name string
	// Out is the transmit link.
	Out *phy.Link
	// Counters receives statistics; required.
	Counters *Counters
	// Recovery enables the link-reset protocol and its watchdogs.
	Recovery RecoveryConfig
}

// NewLinkController builds a controller transmitting on cfg.Out. The
// consumer is registered later with SetNotify; characters arriving before
// that sit in the slack buffer.
func NewLinkController(k *sim.Kernel, cfg LinkControllerConfig) *LinkController {
	if cfg.Out == nil {
		panic("myrinet: LinkController requires an output link")
	}
	if cfg.Counters == nil {
		panic("myrinet: LinkController requires counters")
	}
	lc := &LinkController{
		k:    k,
		name: cfg.Name,
		out:  cfg.Out,
		ctr:  cfg.Counters,
	}
	lc.slack = NewDefaultSlackBuffer(lc.assertStop, lc.assertGo)
	lc.shortTimer = sim.NewTimer(k, ShortTimeout, lc.onShortTimeout)
	lc.longTimer = sim.NewTimer(k, LongTimeout, lc.onLongTimeout)
	lc.SetRecovery(cfg.Recovery)
	return lc
}

// SetRecovery configures the recovery layer. Disabling it mid-run leaves any
// armed watchdog to expire harmlessly.
func (lc *LinkController) SetRecovery(rc RecoveryConfig) {
	rc.fillDefaults()
	lc.recovery = rc
	if rc.Enabled && lc.stopWatchdog == nil {
		lc.stopWatchdog = sim.NewTimer(lc.k, rc.StopWatchdog, lc.onStopWatchdog)
	}
	if lc.stopWatchdog != nil {
		lc.stopWatchdog.SetPeriod(rc.StopWatchdog)
	}
}

// Recovery reports the controller's recovery configuration.
func (lc *LinkController) Recovery() RecoveryConfig { return lc.recovery }

// SetResetHandler registers the consumer callback invoked when the link is
// reset (locally or by a received RESET symbol): the consumer must abandon
// any in-flight reassembly or forwarding state for this port.
func (lc *LinkController) SetResetHandler(fn func()) { lc.onReset = fn }

// Name returns the controller's label.
func (lc *LinkController) Name() string { return lc.name }

// Counters returns the controller's statistics.
func (lc *LinkController) Counters() *Counters { return lc.ctr }

// Slack exposes the receive buffer (for monitors and tests).
func (lc *LinkController) Slack() *SlackBuffer { return lc.slack }

// Out returns the transmit link.
func (lc *LinkController) Out() *phy.Link { return lc.out }

// SetNotify registers the consumer callback invoked whenever characters are
// appended to the slack buffer. The consumer drains via Pop/Peek.
func (lc *LinkController) SetNotify(fn func()) { lc.notify = fn }

// Pop removes the oldest buffered character, possibly triggering the
// low-watermark GO.
func (lc *LinkController) Pop() (phy.Character, bool) { return lc.slack.Pop() }

// Peek returns the oldest buffered character without removing it.
func (lc *LinkController) Peek() (phy.Character, bool) { return lc.slack.Peek() }

// Run returns the longest contiguous run of buffered characters starting at
// the oldest without consuming them; see SlackBuffer.Run.
func (lc *LinkController) Run() []phy.Character { return lc.slack.Run() }

// Discard consumes the oldest n buffered characters; see SlackBuffer.Discard.
func (lc *LinkController) Discard(n int) { lc.slack.Discard(n) }

// Buffered reports how many characters wait in the slack buffer.
func (lc *LinkController) Buffered() int { return lc.slack.Len() }

// ---- Transmit side ----

// EnqueuePacket queues an encoded packet (characters including the trailing
// GAP) for transmission. onDone, if non-nil, is invoked when the last
// character has been handed to the link (terminated=false) or when the
// long-period timeout killed the packet (terminated=true). The controller
// reads chars until then and never recycles them.
func (lc *LinkController) EnqueuePacket(chars []phy.Character, onDone func(terminated bool)) {
	lc.enqueue(txPacket{chars: chars, onDone: onDone})
}

// enqueueOwned queues a stream taken from the kernel's arena with an
// interface-form completion, the form that survives a fork; done may be
// nil. The controller releases the stream when the packet finishes.
func (lc *LinkController) enqueueOwned(chars []phy.Character, done TxCompletion) {
	lc.enqueue(txPacket{chars: chars, owned: true, done: done})
}

// enqueue queues p in an entry from the free list. A full backing array
// whose popped prefix is at least half of it is compacted rather than
// grown, so pops and pushes both stay amortized O(1).
func (lc *LinkController) enqueue(p txPacket) {
	e := lc.freeTx
	if e != nil {
		lc.freeTx = e.next
	} else {
		e = new(txPacket)
	}
	*e = p
	if len(lc.txq) == cap(lc.txq) && 2*lc.txHead >= len(lc.txq) && lc.txHead > 0 {
		n := copy(lc.txq, lc.txq[lc.txHead:])
		clear(lc.txq[n:])
		lc.txq = lc.txq[:n]
		lc.txHead = 0
	}
	lc.txq = append(lc.txq, e)
	lc.scheduleTx()
}

// popTx removes the head of the transmit queue by advancing txHead; the
// queue rewinds to the start of its backing array once it empties.
func (lc *LinkController) popTx() *txPacket {
	p := lc.txq[lc.txHead]
	lc.txq[lc.txHead] = nil
	lc.txHead++
	if lc.txHead == len(lc.txq) {
		lc.txq = lc.txq[:0]
		lc.txHead = 0
	}
	return p
}

// QueuedPackets reports how many packets wait behind the current one.
func (lc *LinkController) QueuedPackets() int { return len(lc.txq) - lc.txHead }

// Paused reports whether remote STOP is gating the transmitter.
func (lc *LinkController) Paused() bool { return lc.paused }

// SendControl transmits a single control symbol immediately (it interleaves
// after whatever chunk the link is currently serializing).
func (lc *LinkController) SendControl(code byte) {
	lc.out.SendOne(phy.ControlChar(code))
}

// StreamChars appends characters to the streaming transmit buffer. Switch
// ports use this for cut-through forwarding: bytes flow out as they arrive,
// gated by downstream STOP/GO, without packet-granularity queueing.
func (lc *LinkController) StreamChars(chars []phy.Character) {
	switch {
	case lc.streamBuf == nil:
		// Room for a full backlog plus what arrives while it drains, so a
		// forwarding port's buffer is allocated once.
		lc.streamBuf = make([]phy.Character, 0, 4*StreamBacklogLimit)
	case lc.streamPos > 0 && len(lc.streamBuf)+len(chars) > cap(lc.streamBuf):
		// Reclaim the sent prefix before append would grow the buffer.
		n := copy(lc.streamBuf, lc.streamBuf[lc.streamPos:])
		lc.streamBuf = lc.streamBuf[:n]
		lc.streamPos = 0
	}
	lc.streamBuf = append(lc.streamBuf, chars...)
	lc.scheduleTx()
}

// TxBacklog reports how many characters wait in the streaming buffer. A
// forwarding engine checks this before consuming more input so downstream
// congestion propagates upstream as slack-buffer backpressure.
func (lc *LinkController) TxBacklog() int { return len(lc.streamBuf) - lc.streamPos }

// SetTxDrainNotify registers a callback invoked when the streaming backlog
// drains below StreamBacklogLimit after having been at or above it.
func (lc *LinkController) SetTxDrainNotify(fn func()) { lc.txDrainNotify = fn }

// StreamBacklogLimit is the streaming backlog (characters) above which a
// forwarding engine should stop consuming its input: the few dozen
// characters of pipeline a real cut-through switch holds per port.
const StreamBacklogLimit = 64

func (lc *LinkController) scheduleTx() {
	if lc.txScheduled || lc.paused {
		return
	}
	if lc.cur == nil && lc.QueuedPackets() == 0 && lc.TxBacklog() == 0 {
		return
	}
	lc.txScheduled = true
	// Run when the transmitter is free; immediately if it already is. The
	// capture-free form matters here: this fires once per transmitted
	// chunk, and a method-value closure per chunk would allocate.
	at := lc.out.BusyUntil()
	if at < lc.k.Now() {
		at = lc.k.Now()
	}
	lc.k.AtArg(at, txStepFn, lc)
}

func txStepFn(a any) { a.(*LinkController).txStep() }

func (lc *LinkController) txStep() {
	lc.txScheduled = false
	if lc.paused {
		return // resume on GO or short timeout
	}
	// Streaming buffer drains first (switch ports use only this path).
	if lc.TxBacklog() > 0 {
		lc.streamStep()
		lc.scheduleTx()
		return
	}
	if lc.cur == nil {
		if lc.QueuedPackets() == 0 {
			return
		}
		lc.cur = lc.popTx()
		lc.curPos = 0
	}
	remaining := len(lc.cur.chars) - lc.curPos
	n := txChunkChars
	if n > remaining {
		n = remaining
	}
	lc.out.Send(lc.cur.chars[lc.curPos : lc.curPos+n])
	lc.ctr.CharsOut += uint64(n)
	lc.curPos += n
	if lc.curPos == len(lc.cur.chars) {
		done := lc.cur
		lc.cur = nil
		lc.longTimer.Stop()
		lc.finish(done, false)
	}
	lc.scheduleTx()
}

func (lc *LinkController) streamStep() {
	before := lc.TxBacklog()
	n := txChunkChars
	if n > before {
		n = before
	}
	lc.out.Send(lc.streamBuf[lc.streamPos : lc.streamPos+n])
	lc.ctr.CharsOut += uint64(n)
	lc.streamPos += n
	after := lc.TxBacklog()
	if after == 0 {
		// Reset the buffer so it does not grow without bound.
		lc.streamBuf = lc.streamBuf[:0]
		lc.streamPos = 0
	}
	if before >= StreamBacklogLimit && after < StreamBacklogLimit && lc.txDrainNotify != nil {
		lc.txDrainNotify()
	}
}

// pauseTx reacts to a received STOP.
func (lc *LinkController) pauseTx() {
	lc.ctr.StopsReceived++
	lc.paused = true
	lc.shortTimer.Reset()
	if lc.cur != nil || lc.QueuedPackets() > 0 {
		if !lc.longTimer.Armed() {
			lc.longTimer.Reset()
		}
	}
	// The stop watchdog measures continuous STOP from the first pause: it
	// is deliberately NOT re-armed by refreshes, so a remote that refreshes
	// STOP forever (wedged consumer, lost GO downstream of it) still hits
	// the deadline.
	if lc.recovery.Enabled && !lc.stopWatchdog.Armed() {
		lc.stopWatchdog.Reset()
	}
}

// resumeTx reacts to a received GO.
func (lc *LinkController) resumeTx() {
	lc.ctr.GosReceived++
	lc.unpause()
}

func (lc *LinkController) unpause() {
	lc.paused = false
	lc.shortTimer.Stop()
	lc.longTimer.Stop()
	if lc.stopWatchdog != nil {
		lc.stopWatchdog.Stop()
	}
	lc.scheduleTx()
}

// onShortTimeout implements the short-period recovery: a stopped sender that
// hears no flow-control symbol for 16 character periods transitions itself
// to GO (§4.3.1).
func (lc *LinkController) onShortTimeout() {
	if !lc.paused {
		return
	}
	lc.ctr.ShortTimeouts++
	lc.unpause()
}

// onLongTimeout implements the long-period recovery: a sender blocked for
// ~4 million character periods terminates the packet, consumes the unsent
// remainder, and emits a GAP to reclaim the path (§4.3.1).
func (lc *LinkController) onLongTimeout() {
	if lc.cur == nil && lc.QueuedPackets() == 0 {
		return
	}
	lc.ctr.LongTimeouts++
	var victim *txPacket
	if lc.cur != nil {
		victim = lc.cur
		lc.cur = nil
	} else {
		victim = lc.popTx()
	}
	lc.ctr.Drop(DropTerminated)
	if lc.recovery.Enabled {
		// Recovery layer: the termination escalates to a link reset —
		// flush local state and tear the wedged path down with a
		// forward RESET so downstream hops do not stay held for another
		// long-timeout period each.
		lc.out.SendOne(charGap)
		lc.finish(victim, true)
		lc.resetLink()
		return
	}
	// Terminate the packet on the wire so downstream paths release.
	lc.out.SendOne(charGap)
	lc.finish(victim, true)
	// Remain paused if STOP is still in force; the short timer will
	// clear it if the remote has gone silent. Re-arm the long timer for
	// the next queued packet so a persistent block keeps draining the
	// queue at the long-timeout cadence rather than freezing forever.
	if lc.paused && (lc.QueuedPackets() > 0) {
		lc.longTimer.Reset()
	}
	if !lc.paused {
		lc.scheduleTx()
	}
}

// onStopWatchdog fires when the transmitter has been continuously
// STOP-blocked for the recovery deadline: the remote's buffer never drained,
// so the path beyond it is wedged. Terminate whatever is in flight and reset
// the link.
func (lc *LinkController) onStopWatchdog() {
	if !lc.paused || !lc.recovery.Enabled {
		return
	}
	lc.ctr.StopWatchdogFires++
	if lc.cur != nil {
		victim := lc.cur
		lc.cur = nil
		lc.ctr.Drop(DropTerminated)
		lc.out.SendOne(charGap)
		lc.finish(victim, true)
	}
	lc.resetLink()
}

// resetLink performs the local half of a forward link reset: flush the
// receive slack (with its stale STOP state), propagate a RESET symbol
// downstream, notify the consumer, and resume transmission — the wedged path
// is gone, so a standing STOP no longer binds.
func (lc *LinkController) resetLink() {
	lc.ctr.LinkResets++
	lc.ctr.FlushedChars += uint64(lc.slack.Flush())
	lc.out.SendPriorityOne(charReset)
	if lc.onReset != nil {
		lc.onReset()
	}
	lc.unpause()
}

// receiveReset reacts to a RESET symbol from the remote: the upstream end
// tore the path down. Discard buffered input and in-flight consumer state;
// any standing STOP we were honoring is stale.
func (lc *LinkController) receiveReset() {
	lc.ctr.ResetsReceived++
	lc.ctr.FlushedChars += uint64(lc.slack.Flush())
	if lc.onReset != nil {
		lc.onReset()
	}
	lc.unpause()
}

// ---- Receive side ----

// Receive implements phy.Receiver: it classifies every incoming character.
// Each maximal run of data and GAP characters enters the slack buffer with
// one PushRun; control characters act one at a time, in stream order.
func (lc *LinkController) Receive(chars []phy.Character) {
	if lc.tap != nil {
		lc.tap.ObserveChars(lc.k.Now(), chars)
	}
	pushed := false
	for i := 0; i < len(chars); {
		j := i
		for j < len(chars) && (chars[j].IsData() || chars[j].Byte() == SymGap) {
			j++
		}
		if j > i {
			// Data, and GAP for packet framing, enter the stream.
			lc.ctr.CharsIn += uint64(j - i)
			n := lc.slack.PushRun(chars[i:j])
			lc.ctr.OverflowChars += uint64(j - i - n)
			pushed = pushed || n > 0
			i = j
			continue
		}
		lc.ctr.CharsIn++
		switch DecodeControl(chars[i].Byte()) {
		case SymbolStop:
			lc.pauseTx()
		case SymbolGo:
			lc.resumeTx()
		case SymbolReset:
			// Only recovery-aware hardware knows the symbol; the
			// paper's interfaces ignore it like any unknown code.
			if lc.recovery.Enabled {
				lc.receiveReset()
			}
		default:
			// IDLE and unrecognized codes: no action.
		}
		i++
	}
	if pushed && lc.notify != nil {
		lc.notify()
	}
	// The burst was copied into the slack buffer; hand it back to this
	// kernel's arena.
	phy.ReleaseBurst(lc.k, chars)
}

// assertStop is the slack buffer's high-watermark callback: issue STOP and
// keep refreshing it so the remote's short-period timer does not release it.
func (lc *LinkController) assertStop() {
	lc.ctr.StopsSent++
	lc.out.SendPriorityOne(charStop)
	lc.armRefresh()
}

func (lc *LinkController) armRefresh() {
	if lc.refreshOn {
		return
	}
	lc.refreshOn = true
	lc.refreshEvent = lc.k.AfterArg(StopRefresh, refreshStopFn, lc)
}

func refreshStopFn(a any) { a.(*LinkController).refreshStop() }

func (lc *LinkController) refreshStop() {
	lc.refreshOn = false
	if !lc.slack.Stopping() {
		return
	}
	lc.ctr.StopsSent++
	lc.out.SendPriorityOne(charStop)
	lc.armRefresh()
}

// assertGo is the slack buffer's low-watermark callback.
func (lc *LinkController) assertGo() {
	if lc.refreshOn {
		lc.k.Cancel(lc.refreshEvent)
		lc.refreshOn = false
	}
	lc.ctr.GosSent++
	lc.out.SendPriorityOne(charGo)
}

var _ phy.Receiver = (*LinkController)(nil)
