package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"netfi/internal/bitstream"
	"netfi/internal/core"
	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/rules"
)

// Rule opening pairs are a data byte from firstBytes followed by one from
// secondBytes. Stream payloads draw from payloadLow and up, and route, type
// and CRC bytes can never form such a pair, so rules match exactly where
// the generator plants a pair: in one packet of every plantEvery.
const (
	firstBytes  = 0x10 // 0x10..0x1f
	secondBytes = 0x20 // 0x20..0x2f
	payloadLow  = 0x30
	plantEvery  = 16
)

// genRules draws n rules (n <= 64) from the seed: distinct two-symbol
// opening pairs, each rule toggling, replacing or capturing on a match.
func genRules(seed int64, n int) ([]rules.Rule, [][2]byte) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(256)
	rs := make([]rules.Rule, n)
	pairs := make([][2]byte, n)
	for i := range rs {
		a, b := byte(firstBytes+perm[i]/16), byte(secondBytes+perm[i]%16)
		pairs[i] = [2]byte{a, b}
		r := rules.Rule{
			ID:       i + 1,
			Priority: rng.Intn(4),
			Mode:     rules.ModeOn,
			Steps: []rules.Step{
				{Sym: uint16(phy.DataChar(a)), Mask: rules.SymbolMask},
				{Sym: uint16(phy.DataChar(b)), Mask: rules.SymbolMask},
			},
		}
		switch rng.Intn(3) {
		case 0:
			r.Action = rules.ActionToggle
			r.CorruptData = []uint16{0, 1 << rng.Intn(8)}
		case 1:
			r.Action = rules.ActionReplace
			r.CorruptData = []uint16{0, uint16(rng.Intn(256))}
			r.CorruptMask = []uint16{0, 0xff}
		default:
			r.Action = rules.ActionCapture
		}
		rs[i] = r
	}
	return rs, pairs
}

// injectorStream is a generated Myrinet character stream and the bursts it
// is delivered in.
type injectorStream struct {
	chars   []phy.Character
	bursts  [][]phy.Character // consecutive slices of chars
	packets int
	planted int // packets carrying an opening pair
}

// genStream draws about n characters of link traffic from the seed: packets
// with 1-3 route bytes, a data or mapping type, payloads of mixed sizes and
// a CRC-8, each ended by GAP; IDLE fill between packets, with an occasional
// STOP ... GO flow-control pause. Every plantEvery-th packet carries one of
// pairs at a random payload offset. The stream is cut into bursts of 16 to
// 2048 characters. Packets are encoded in place, as myrinet.Packet encodes
// them, so generating leaves no garbage to inflate peak memory.
func genStream(seed int64, n int, pairs [][2]byte) injectorStream {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var s injectorStream
	idle, stop, gogo := phy.ControlChar(myrinet.SymIdle), phy.ControlChar(myrinet.SymStop), phy.ControlChar(myrinet.SymGo)
	gap := phy.ControlChar(myrinet.SymGap)
	s.chars = make([]phy.Character, 0, n+4096)
	body := make([]byte, 0, 4096)
	for len(s.chars) < n {
		for i := rng.Intn(8); i > 0; i-- {
			s.chars = append(s.chars, idle)
		}
		if rng.Intn(32) == 0 {
			s.chars = append(s.chars, stop)
			for i := rng.Intn(16); i > 0; i-- {
				s.chars = append(s.chars, idle)
			}
			s.chars = append(s.chars, gogo)
		}
		body = body[:0]
		for i := 1 + rng.Intn(3); i > 0; i-- {
			body = append(body, myrinet.SwitchHop(rng.Intn(16)))
		}
		body = append(body, myrinet.RouteFinal)
		typ := myrinet.TypeData
		if rng.Intn(10) == 0 {
			typ = myrinet.TypeMapping
		}
		body = append(body, 0, 0, byte(typ>>8), byte(typ))
		var size int
		switch p := rng.Intn(100); {
		case p < 70:
			size = 8 + rng.Intn(57)
		case p < 95:
			size = 65 + rng.Intn(448)
		default:
			size = 513 + rng.Intn(1536)
		}
		start := len(body)
		for i := 0; i < size; i++ {
			body = append(body, byte(payloadLow+rng.Intn(256-payloadLow)))
		}
		if s.packets%plantEvery == plantEvery-1 {
			p := pairs[rng.Intn(len(pairs))]
			off := start + rng.Intn(size-1)
			body[off], body[off+1] = p[0], p[1]
			s.planted++
		}
		for _, b := range body {
			s.chars = append(s.chars, phy.DataChar(b))
		}
		s.chars = append(s.chars, phy.DataChar(bitstream.CRC8(body)), gap)
		s.packets++
	}
	for i := 0; i < len(s.chars); {
		j := min(i+16+rng.Intn(2033), len(s.chars))
		s.bursts = append(s.bursts, s.chars[i:j])
		i = j
	}
	return s
}

// engineStats is what an engine reports after a stream: its character,
// legacy compare-window match and injection counts, and each rule's
// matches and fires.
type engineStats struct {
	chars, windowMatches, injections uint64
	matches, fires                   []uint64
}

func statsOf(e *core.Engine) engineStats {
	var s engineStats
	s.chars, s.windowMatches, s.injections = e.Stats()
	for _, r := range e.Rules() {
		m, f, _ := e.RuleCounters(r.ID)
		s.matches = append(s.matches, m)
		s.fires = append(s.fires, f)
	}
	return s
}

func (s engineStats) equal(o engineStats) bool {
	return s.chars == o.chars && s.windowMatches == o.windowMatches && s.injections == o.injections &&
		slices.Equal(s.matches, o.matches) && slices.Equal(s.fires, o.fires)
}

func sum(xs []uint64) uint64 {
	var n uint64
	for _, x := range xs {
		n += x
	}
	return n
}

// newEngine is the injector's engine set-up: unarmed for a nil program.
func newEngine(prog *rules.Program) *core.Engine {
	e := core.NewEngine(core.DefaultSlackChars)
	if prog != nil {
		e.SetRuleProgram(prog)
	}
	return e
}

// checkStream feeds the stream burst by burst to a ProcessBatch engine and
// to the per-symbol Engine.Process reference, counting each burst and the
// final flush as an operation that fails when the outputs differ. It
// returns the batch engine's final stats.
func (r *runner) checkStream(st injectorStream, prog *rules.Program, phase string) engineStats {
	batch, ref := newEngine(prog), newEngine(prog)
	failed := 0
	for _, b := range st.bursts {
		if !slices.Equal(batch.ProcessBatch(b), ref.Process(b)) {
			failed++
		}
	}
	if !slices.Equal(batch.Flush(), ref.Flush()) {
		failed++
	}
	bs, rs := statsOf(batch), statsOf(ref)
	if !bs.equal(rs) {
		failed++
	}
	r.count(len(st.bursts)+2, failed, "%s: ProcessBatch differs from per-symbol Process", phase)
	return bs
}

// pushStream is one phase of the measured unit.
func pushStream(e *core.Engine, st injectorStream) {
	for _, b := range st.bursts {
		e.ProcessBatch(b)
	}
	e.Flush()
}

// injectorSetups is how many set-ups a run times before measuring.
const injectorSetups = 25

// runInjector is injector-stream: the seed's character stream pushed burst
// by burst through core.Engine.ProcessBatch, once unarmed (pass-through) and
// once with the seed's rules armed. Set-up is rules.Compile plus both
// engines' set-up; the measured unit is both phases.
func runInjector(r *runner) error {
	rs, pairs := genRules(r.cfg.Seed, r.cfg.Sizes.Rules)
	st := genStream(r.cfg.Seed, r.cfg.Sizes.StreamChars, pairs)

	var prog *rules.Program
	for i := 0; i < injectorSetups; i++ {
		var err error
		r.setup("injector set-up", func() {
			t0 := time.Now()
			r.span("rules.Compile", func() { prog, err = rules.Compile(rs, rules.Options{}) })
			r.sample("rules.compile_s", time.Since(t0).Seconds())
			if err == nil {
				newEngine(nil)
				newEngine(prog)
			}
		})
		if err != nil {
			return fmt.Errorf("compiling the generated rules: %w", err)
		}
	}

	wantPass := r.checkStream(st, nil, "pass-through")
	wantArmed := r.checkStream(st, prog, "armed")
	if st.planted == 0 || sum(wantArmed.fires) == 0 {
		r.count(1, 1, "armed phase: %d planted pairs, %d fires", st.planted, sum(wantArmed.fires))
	}

	mb := float64(len(st.chars)) / 1e6
	return r.loop(func(rep int) error {
		pass, armed := newEngine(nil), newEngine(prog)
		var passS, armedS float64
		sp, err := r.unit("injector-stream", func() {
			t0 := time.Now()
			r.span("core.ProcessBatch pass-through", func() { pushStream(pass, st) })
			t1 := time.Now()
			r.span("core.ProcessBatch armed", func() { pushStream(armed, st) })
			passS, armedS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
		})
		if err != nil {
			return err
		}
		gotPass, gotArmed := statsOf(pass), statsOf(armed)
		bad := 0
		if !gotPass.equal(wantPass) {
			bad++
		}
		if !gotArmed.equal(wantArmed) {
			bad++
		}
		r.count(2, bad, "rep %d: engine counts differ from the checked run's", rep)
		if sp != nil {
			r.sample("core.chars", float64(gotPass.chars+gotArmed.chars))
			r.sample("core.matches", float64(sum(gotArmed.matches)))
			r.sample("core.injections", float64(gotPass.injections+gotArmed.injections))
			r.sample("core.pass_mb_per_s", mb/passS)
			r.sample("rules.armed_mb_per_s", mb/armedS)
			r.sample("rules.dfa_states", float64(prog.Stats().DFAStates))
			r.sample("rules.fires", float64(sum(gotArmed.fires)))
			r.sample("rules.fire_share", float64(sum(gotArmed.fires))/float64(st.packets))
			r.runtimeSamples(sp)
		}
		return nil
	})
}
