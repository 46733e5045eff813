package rules

import "math/bits"

// Executor runs a compiled Program over a symbol stream, one 9-bit symbol
// per Step call, with zero allocations in the hot path. It also owns the
// per-rule trigger state (match/fire counters, once latches, the armed
// window) so that re-arming is a Reset away, like reloading the register
// file of the single-pattern engine.
type Executor struct {
	p *Program

	dfa   int32
	lanes []uint64 // per-rule active-state bitsets (lane mode)

	symbols   uint64 // symbols consumed since Reset
	onceFired uint64
	matches   []uint64
	fires     []uint64
}

// NewExecutor returns an armed executor.
func NewExecutor(p *Program) *Executor {
	e := &Executor{
		p:       p,
		matches: make([]uint64, len(p.rules)),
		fires:   make([]uint64, len(p.rules)),
	}
	if !p.UsesDFA() {
		e.lanes = make([]uint64, len(p.rules))
	}
	e.Reset()
	return e
}

// InStart reports whether the automaton is in its start configuration, i.e.
// no partial match is in flight. Non-starter symbols (Program.Starter)
// consumed here provably leave the executor unchanged except for the symbol
// clock.
func (e *Executor) InStart() bool {
	if e.p.dfaTable != nil {
		return e.dfa == 0
	}
	for _, set := range e.lanes {
		if set != 1 {
			return false
		}
	}
	return true
}

// SkipQuiet advances the symbol clock over n symbols without touching
// automaton state. Only valid when InStart() holds and stepping the skipped
// symbols provably ends back in the start configuration with no match: a run
// of non-starters, or a span the program's prefilter cleared. Callers own
// that proof.
func (e *Executor) SkipQuiet(n int) { e.symbols += uint64(n) }

// Program returns the compiled rule set.
func (e *Executor) Program() *Program { return e.p }

// Reset re-arms the executor: automaton state, once latches, the window
// clock, and the per-rule counters all return to their power-on state.
func (e *Executor) Reset() {
	e.dfa = 0
	for i := range e.lanes {
		e.lanes[i] = 1 // the always-active unanchored start
	}
	e.symbols = 0
	e.onceFired = 0
	for i := range e.matches {
		e.matches[i] = 0
		e.fires[i] = 0
	}
}

// Step consumes one symbol and returns the bitmask of rules firing on it
// (bit i = rule i in compile order), after mode gating. Match counters
// advance even when the mode gates the fire.
func (e *Executor) Step(sym uint16) uint64 {
	sym &= SymbolMask
	e.symbols++
	var matched uint64
	if e.p.dfaTable != nil {
		e.dfa = e.p.dfaTable[int(e.dfa)*SymbolSpace+int(sym)]
		matched = e.p.dfaAccept[e.dfa]
	} else {
		for r := range e.p.lanes {
			lane := &e.p.lanes[r]
			var next uint64 = 1
			for set := e.lanes[r]; set != 0; set &= set - 1 {
				i := bits.TrailingZeros64(set)
				st := &lane.states[i]
				if st.selfAny {
					next |= 1 << uint(i)
				}
				if st.anyNext >= 0 {
					next |= 1 << uint(st.anyNext)
				}
				if st.matchNext >= 0 && (sym^st.cmp)&st.mask == 0 {
					next |= 1 << uint(st.matchNext)
				}
			}
			e.lanes[r] = next
			if next&lane.accept != 0 {
				matched |= 1 << uint(r)
			}
		}
	}
	if matched == 0 {
		return 0
	}
	var fired uint64
	for set := matched; set != 0; set &= set - 1 {
		i := bits.TrailingZeros64(set)
		e.matches[i]++
		r := &e.p.rules[i]
		fire := false
		switch r.Mode {
		case ModeOn:
			fire = true
		case ModeOnce:
			if e.onceFired&(1<<uint(i)) == 0 {
				fire = true
				e.onceFired |= 1 << uint(i)
			}
		case ModeAfterN:
			fire = e.matches[i] > r.N
		case ModeWindow:
			fire = e.symbols <= r.N
		}
		if fire {
			e.fires[i]++
			fired |= 1 << uint(i)
		}
	}
	return fired
}

// Counters reports rule i's cumulative matches and (mode-gated) fires since
// the last Reset.
func (e *Executor) Counters(i int) (matches, fires uint64) {
	return e.matches[i], e.fires[i]
}

// Symbols reports how many symbols the executor has consumed since Reset.
func (e *Executor) Symbols() uint64 { return e.symbols }
