package rules

import (
	"fmt"
	"math/bits"
	"sort"
)

// DefaultMaxDFAStates bounds subset construction: a 1024-state DFA over the
// 512-symbol alphabet is a 2 MiB transition table — the upper end of what a
// block-RAM transition ROM on the paper's FPGA class could hold.
const DefaultMaxDFAStates = 1024

// Options parameterizes compilation.
type Options struct {
	// MaxDFAStates is the subset-construction state budget; zero selects
	// DefaultMaxDFAStates. When the budget is exceeded the compiler falls
	// back to per-rule NFA lanes.
	MaxDFAStates int
	// ForceLanes skips the DFA entirely (benchmarking the fallback, or
	// bounding memory).
	ForceLanes bool
}

// nfaState is one Thompson-style state. Each state has at most one
// consuming transition (fires when (sym^cmp)&mask == 0; mask 0 fires on any
// symbol), at most one wildcard advance (the bounded-gap chain), and an
// optional wildcard self-loop (the unanchored start and unbounded gaps).
type nfaState struct {
	cmp, mask uint16
	matchNext int32 // consuming transition target, -1 none
	anyNext   int32 // gap-chain advance target, -1 none
	selfAny   bool
	accept    int32 // rule index reaching acceptance at this state, -1 none
}

// laneProg is one rule's private NFA, executed as a 64-bit set of active
// states. Bit 0 is the start state and stays set forever (unanchored
// matching).
type laneProg struct {
	states []nfaState
	accept uint64 // bitmask of accepting local states
}

// Program is a compiled rule set: either a flat DFA transition table
// (table[state*512+sym] -> state, with a per-state accept bitmask) or, past
// the state budget, one NFA lane per rule.
type Program struct {
	rules []Rule
	lanes []laneProg

	// Subset-construction result; dfaTable nil selects lane execution.
	dfaTable  []int32
	dfaAccept []uint64
	dfaStates int

	nfaStates int

	// starter is the first-step bitmap: bit s of word s/64 is set when
	// symbol s satisfies some rule's first step — exactly the symbols on
	// which an executor leaves its start configuration.
	starter [SymbolSpace / 64]uint64

	// prefilter is the compiled batch screen; nil when judged useless (see
	// compilePrefilter).
	prefilter *Prefilter
}

// ProgramStats summarizes the compiled form, for resource estimation
// (internal/synth) and diagnostics.
type ProgramStats struct {
	// Rules is the rule count; NFAStates the summed per-rule NFA sizes.
	Rules     int
	NFAStates int
	// DFAStates is zero in lane mode.
	DFAStates int
	// TableEntries is the transition storage: DFA states x 512, or the
	// summed lane state counts in lane mode.
	TableEntries int
	// Mode is "dfa" or "nfa-lanes".
	Mode string
}

// Compile validates and lowers a rule set. Rule order is preserved: rule i
// of the input is bit i of every Executor fire mask.
func Compile(rs []Rule, opts Options) (*Program, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("rules: empty rule set")
	}
	if len(rs) > MaxRules {
		return nil, fmt.Errorf("rules: %d rules, max %d", len(rs), MaxRules)
	}
	budget := opts.MaxDFAStates
	if budget <= 0 {
		budget = DefaultMaxDFAStates
	}
	p := &Program{rules: make([]Rule, 0, len(rs))}
	for i := range rs {
		if err := rs[i].Validate(); err != nil {
			return nil, err
		}
		p.rules = append(p.rules, rs[i].clone())
		p.lanes = append(p.lanes, buildLane(&rs[i], int32(i)))
		p.nfaStates += len(p.lanes[i].states)
	}
	if !opts.ForceLanes {
		p.buildDFA(budget) // leaves dfaTable nil past the budget
	}
	for i := range p.rules {
		first := p.rules[i].Steps[0]
		for s := 0; s < SymbolSpace; s++ {
			if (uint16(s)^first.Sym)&first.Mask&SymbolMask == 0 {
				p.starter[s>>6] |= 1 << uint(s&63)
			}
		}
	}
	starters := 0
	for _, w := range p.starter {
		starters += bits.OnesCount64(w)
	}
	p.prefilter = compilePrefilter(p.rules, starters)
	return p, nil
}

// buildLane lowers one rule to its private NFA. States are laid out start
// first, then per step: the gap chain (if bounded) followed by the post
// state, so every consuming transition targets the step's post state.
func buildLane(r *Rule, ruleIdx int32) laneProg {
	states := make([]nfaState, 0, r.nfaSize())
	add := func(s nfaState) int32 {
		states = append(states, s)
		return int32(len(states) - 1)
	}
	blank := nfaState{matchNext: -1, anyNext: -1, accept: -1}
	cur := add(func() nfaState { s := blank; s.selfAny = true; return s }()) // unanchored start
	for j, step := range r.Steps {
		// The post state this step's consuming transitions target.
		post := blank
		if j == len(r.Steps)-1 {
			post.accept = ruleIdx
		}
		consume := func(from int32, to int32) {
			states[from].cmp = step.Sym
			states[from].mask = step.Mask
			states[from].matchNext = to
		}
		switch {
		case step.Gap == GapUnbounded:
			states[cur].selfAny = true
			postIdx := add(post)
			consume(cur, postIdx)
			cur = postIdx
		case step.Gap > 0:
			chain := make([]int32, step.Gap)
			for k := range chain {
				chain[k] = add(blank)
			}
			postIdx := add(post)
			prev := cur
			for _, g := range chain {
				states[prev].anyNext = g
				prev = g
			}
			consume(cur, postIdx)
			for _, g := range chain {
				consume(g, postIdx)
			}
			cur = postIdx
		default:
			postIdx := add(post)
			consume(cur, postIdx)
			cur = postIdx
		}
	}
	lp := laneProg{states: states}
	for i, s := range states {
		if s.accept >= 0 {
			lp.accept |= 1 << uint(i)
		}
	}
	return lp
}

// globalNFA concatenates the lanes into one state array for subset
// construction, fixing up transition targets by each lane's offset.
func (p *Program) globalNFA() (states []nfaState, starts []int32) {
	for _, lane := range p.lanes {
		off := int32(len(states))
		starts = append(starts, off)
		for _, s := range lane.states {
			if s.matchNext >= 0 {
				s.matchNext += off
			}
			if s.anyNext >= 0 {
				s.anyNext += off
			}
			states = append(states, s)
		}
	}
	return states, starts
}

// dfaBuilder interns NFA-state sets and owns the per-symbol scratch. The
// per-DFA-state work is split into a symbol-independent "base" target set
// (self-loops, gap advances, wildcard steps) and per-symbol extras from
// masked consuming transitions, whose symbol classes are enumerated by
// walking the submasks of the don't-care bits; only symbols actually named
// by some transition get a non-base target, so a row costs 512 writes plus
// a handful of set constructions rather than 512 of them.
type dfaBuilder struct {
	nfa    []nfaState
	sets   [][]int32
	ids    map[string]int32
	accept []uint64

	specific [SymbolSpace][]int32
	touched  []uint16
}

// intern returns the DFA state id for a sorted, deduplicated NFA set,
// creating it if new.
func (b *dfaBuilder) intern(set []int32) int32 {
	key := setKey(set)
	if id, ok := b.ids[key]; ok {
		return id
	}
	id := int32(len(b.sets))
	b.sets = append(b.sets, append([]int32(nil), set...))
	b.ids[key] = id
	var acc uint64
	for _, s := range set {
		if r := b.nfa[s].accept; r >= 0 {
			acc |= 1 << uint(r)
		}
	}
	b.accept = append(b.accept, acc)
	return id
}

// setKey encodes a sorted set as map key bytes.
func setKey(set []int32) string {
	buf := make([]byte, 0, 2*len(set))
	for _, s := range set {
		buf = append(buf, byte(s), byte(s>>8))
	}
	return string(buf)
}

// normalize sorts and deduplicates a target list in place.
func normalize(set []int32) []int32 {
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	out := set[:0]
	for i, s := range set {
		if i == 0 || s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// buildDFA runs subset construction under the state budget. On success the
// program's dfaTable/dfaAccept/dfaStates are populated; past the budget the
// program is left in lane mode.
func (p *Program) buildDFA(budget int) {
	nfa, starts := p.globalNFA()
	table, accept, ok := subsetConstruct(nfa, starts, budget)
	if !ok {
		return // blown budget: stay in lane mode
	}
	p.dfaStates = len(accept)
	p.dfaTable = table
	p.dfaAccept = accept
}

// subsetConstruct determinizes an NFA under a state budget, returning the
// transition table and per-state accept masks. ok is false when the budget
// blew, with the partial results discarded.
func subsetConstruct(nfa []nfaState, starts []int32, budget int) (table []int32, accept []uint64, ok bool) {
	b := &dfaBuilder{nfa: nfa, ids: make(map[string]int32)}
	b.intern(normalize(append([]int32(nil), starts...)))

	// The transition table grows row by row in its final backing array —
	// one geometric-growth allocation chain instead of a 2KB row per state
	// plus a final copy.
	table = make([]int32, 0, 4*SymbolSpace)
	for si := 0; si < len(b.sets); si++ {
		S := b.sets[si]
		base := make([]int32, 0, len(S)+4)
		for _, s := range S {
			st := &nfa[s]
			if st.selfAny {
				base = append(base, s)
			}
			if st.anyNext >= 0 {
				base = append(base, st.anyNext)
			}
			if st.matchNext < 0 {
				continue
			}
			if st.mask == 0 {
				base = append(base, st.matchNext)
				continue
			}
			// Enumerate the masked symbol class: fixed bits from
			// cmp&mask, free bits walked as submasks.
			free := ^st.mask & SymbolMask
			want := st.cmp & st.mask
			for sub := uint16(free); ; sub = (sub - 1) & uint16(free) {
				sym := want | sub
				if len(b.specific[sym]) == 0 {
					b.touched = append(b.touched, sym)
				}
				b.specific[sym] = append(b.specific[sym], st.matchNext)
				if sub == 0 {
					break
				}
			}
		}
		base = normalize(base)
		baseID := b.intern(base)
		start := len(table)
		for i := 0; i < SymbolSpace; i++ {
			table = append(table, baseID)
		}
		row := table[start:]
		sort.Slice(b.touched, func(i, j int) bool { return b.touched[i] < b.touched[j] })
		for _, sym := range b.touched {
			t := append(append([]int32(nil), base...), b.specific[sym]...)
			row[sym] = b.intern(normalize(t))
			b.specific[sym] = b.specific[sym][:0]
		}
		b.touched = b.touched[:0]
		if len(b.sets) > budget {
			return nil, nil, false
		}
	}
	return table, b.accept, true
}

// Rule returns rule i (compile order).
func (p *Program) Rule(i int) *Rule { return &p.rules[i] }

// Rules returns the compiled rules in order. The slice is shared; treat it
// as read-only.
func (p *Program) Rules() []Rule { return p.rules }

// UsesDFA reports whether subset construction fit the budget.
func (p *Program) UsesDFA() bool { return p.dfaTable != nil }

// Starter reports whether sym satisfies some rule's first step, i.e. whether
// consuming it moves an executor out of its start configuration. The
// injector's batch plan wakes the exact executor only on starters.
func (p *Program) Starter(sym uint16) bool {
	s := sym & SymbolMask
	return p.starter[s>>6]&(1<<uint(s&63)) != 0
}

// Prefilter returns the compiled batch screen, or nil when one would not pay
// for this rule set (see compilePrefilter).
func (p *Program) Prefilter() *Prefilter { return p.prefilter }

// Stats summarizes the compiled form.
func (p *Program) Stats() ProgramStats {
	st := ProgramStats{Rules: len(p.rules), NFAStates: p.nfaStates}
	if p.UsesDFA() {
		st.DFAStates = p.dfaStates
		st.TableEntries = p.dfaStates * SymbolSpace
		st.Mode = "dfa"
	} else {
		st.TableEntries = p.nfaStates
		st.Mode = "nfa-lanes"
	}
	return st
}
