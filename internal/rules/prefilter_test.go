package rules

import (
	"math/rand"
	"testing"
)

func pfRule(id int, steps ...Step) Rule {
	return Rule{ID: id, Mode: ModeOn, Action: ActionCapture, Steps: steps}
}

func mustCompile(t *testing.T, rs []Rule, opts Options) *Program {
	t.Helper()
	p, err := Compile(rs, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// Prefix extraction stops at the first gapped step and caps at prefixCap.
func TestPrefixExtraction(t *testing.T) {
	cases := []struct {
		name  string
		steps []Step
		want  int // extracted prefix length
	}{
		{"single", []Step{{Sym: 0x41, Mask: SymbolMask}}, 1},
		{"contiguous pair", []Step{
			{Sym: 0x41, Mask: SymbolMask},
			{Sym: 0x42, Mask: SymbolMask},
		}, 2},
		{"gap cuts the prefix", []Step{
			{Sym: 0x41, Mask: SymbolMask},
			{Sym: 0x42, Mask: SymbolMask},
			{Sym: 0x43, Mask: SymbolMask, Gap: 2},
			{Sym: 0x44, Mask: SymbolMask},
		}, 2},
		{"unbounded gap cuts too", []Step{
			{Sym: 0x41, Mask: SymbolMask},
			{Sym: 0x42, Mask: SymbolMask, Gap: GapUnbounded},
		}, 1},
		{"capped at prefixCap", []Step{
			{Sym: 0x41, Mask: SymbolMask},
			{Sym: 0x42, Mask: SymbolMask},
			{Sym: 0x43, Mask: SymbolMask},
			{Sym: 0x44, Mask: SymbolMask},
			{Sym: 0x45, Mask: SymbolMask},
			{Sym: 0x46, Mask: SymbolMask},
		}, prefixCap},
	}
	for _, tc := range cases {
		r := pfRule(0, tc.steps...)
		if got := len(extractPrefix(&r)); got != tc.want {
			t.Errorf("%s: extracted prefix length %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Identical prefixes collapse, and a shorter prefix subsumes every longer
// prefix it leads: completions of the longer are completions of the shorter
// at the same position, so only the shorter needs positions.
func TestPrefixDedupeAndSubsumption(t *testing.T) {
	rs := []Rule{
		pfRule(0, Step{Sym: 0x41, Mask: SymbolMask}, Step{Sym: 0x42, Mask: SymbolMask}),
		pfRule(1, Step{Sym: 0x41, Mask: SymbolMask}, Step{Sym: 0x42, Mask: SymbolMask}), // duplicate
		pfRule(2, Step{Sym: 0x41, Mask: SymbolMask}, Step{Sym: 0x42, Mask: SymbolMask},
			Step{Sym: 0x43, Mask: SymbolMask}, Step{Sym: 0x44, Mask: SymbolMask}), // subsumed by rule 0
		pfRule(3, Step{Sym: 0x50, Mask: SymbolMask}, Step{Sym: 0x51, Mask: SymbolMask}), // distinct
	}
	pf := mustCompile(t, rs, Options{}).Prefilter()
	if pf == nil {
		t.Fatal("prefilter missing")
	}
	st := pf.Stats()
	if st.Prefixes != 2 {
		t.Fatalf("deduplicated prefixes = %d, want 2 (stats %+v)", st.Prefixes, st)
	}
	if st.MaxLen != 2 {
		t.Fatalf("MaxLen = %d, want 2 after subsumption (stats %+v)", st.MaxLen, st)
	}
	// Same-symbol different-mask first steps are distinct classes, not dupes.
	rs2 := []Rule{
		pfRule(0, Step{Sym: 0x41, Mask: SymbolMask}, Step{Sym: 0x42, Mask: SymbolMask}),
		pfRule(1, Step{Sym: 0x41, Mask: 0x0FF}, Step{Sym: 0x42, Mask: SymbolMask}),
	}
	pf2 := mustCompile(t, rs2, Options{}).Prefilter()
	if got := pf2.Stats().Prefixes; got != 2 {
		t.Fatalf("distinct masked classes collapsed: prefixes = %d, want 2", got)
	}
	// Sym bits outside the mask are normalized away before comparing.
	rs3 := []Rule{
		pfRule(0, Step{Sym: 0x141, Mask: 0x0FF}, Step{Sym: 0x42, Mask: SymbolMask}),
		pfRule(1, Step{Sym: 0x041, Mask: 0x0FF}, Step{Sym: 0x42, Mask: SymbolMask}),
	}
	pf3 := mustCompile(t, rs3, Options{}).Prefilter()
	if got := pf3.Stats().Prefixes; got != 1 {
		t.Fatalf("mask-equivalent classes not collapsed: prefixes = %d, want 1", got)
	}
}

// Compile declines a screen when it cannot help: single-symbol prefixes
// (waking on starters already covers them) or starter classes covering most
// of the symbol space.
func TestPrefilterAutoDeclines(t *testing.T) {
	wildcard := []Rule{pfRule(0,
		Step{Sym: 0, Mask: 0}, // matches every symbol: no usable literal prefix
		Step{Sym: 0x42, Mask: SymbolMask})}
	if pf := mustCompile(t, wildcard, Options{}).Prefilter(); pf != nil {
		t.Fatalf("auto compiled a screen for a wildcard-first rule: %+v", pf.Stats())
	}
	short := []Rule{pfRule(0, Step{Sym: 0x41, Mask: SymbolMask})}
	if pf := mustCompile(t, short, Options{}).Prefilter(); pf != nil {
		t.Fatalf("auto compiled a screen for a one-symbol rule: %+v", pf.Stats())
	}
	useful := []Rule{pfRule(0,
		Step{Sym: 0x41, Mask: SymbolMask},
		Step{Sym: 0x42, Mask: SymbolMask})}
	if pf := mustCompile(t, useful, Options{}).Prefilter(); pf == nil {
		t.Fatal("auto declined a two-symbol literal prefix")
	}
}

// The starter set is exactly the symbols satisfying some rule's first step —
// the injector's wake table treats non-starters as skippable.
func TestPrefilterStarterCoversFirstSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	buf := make([]byte, 64)
	for caseN := 0; caseN < 300; caseN++ {
		rng.Read(buf)
		c := &byteCursor{data: buf}
		rs := buildFuzzRules(c)
		p, err := Compile(rs, Options{})
		if err != nil {
			continue
		}
		for s := 0; s < SymbolSpace; s++ {
			first := -1
			for i := range rs {
				if st := rs[i].Steps[0]; (uint16(s)^st.Sym)&st.Mask&SymbolMask == 0 {
					first = i
					break
				}
			}
			if got := p.Starter(uint16(s)); got != (first >= 0) {
				t.Fatalf("case %d: Starter(%#03x) = %v, first step of rule %d matches it", caseN, s, got, first)
			}
		}
	}
}

// Starter is exactly the set of symbols on which a fresh executor leaves its
// start configuration, in both compiled forms: the injector skips
// non-starters with SkipQuiet and wakes the executor on every starter.
func TestStarterIsStartExit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, 64)
	for caseN := 0; caseN < 500; caseN++ {
		rng.Read(buf)
		c := &byteCursor{data: buf}
		rs := buildFuzzRules(c)
		for _, opts := range []Options{{MaxDFAStates: 64}, {ForceLanes: true}} {
			p, err := Compile(rs, opts)
			if err != nil {
				break
			}
			e := NewExecutor(p)
			for s := 0; s < SymbolSpace; s++ {
				e.Reset()
				e.Step(uint16(s))
				if left := !e.InStart(); left != p.Starter(uint16(s)) {
					t.Fatalf("case %d: symbol %#03x: Starter %v, executor left start %v (dfa=%v)",
						caseN, s, p.Starter(uint16(s)), left, p.UsesDFA())
				}
			}
		}
	}
}

// With 64 rules the shift-and state spans four words; rule 0's 3-symbol
// prefix puts every 16th later prefix across a word boundary, so a hit there
// needs the carry between words. Each prefix must report live partials of
// growing depth and then exactly one hit, even after unrelated noise.
func TestScannerCarriesAcrossWords(t *testing.T) {
	rs := make([]Rule, MaxRules)
	for i := range rs {
		n := 4
		if i == 0 {
			n = 3
		}
		var steps []Step
		for j := 0; j < n; j++ {
			// Distinct symbols per position keep every prefix distinct and
			// stop one prefix's tail from starting another.
			steps = append(steps, Step{Sym: uint16(j*MaxRules + i), Mask: SymbolMask})
		}
		rs[i] = pfRule(i, steps...)
	}
	pf := mustCompile(t, rs, Options{}).Prefilter()
	if pf == nil || pf.Stats().Words != 4 {
		t.Fatalf("64 rules: screen %+v, want 4 words", pf)
	}
	for i := range rs {
		sc := pf.NewScanner()
		for _, noise := range []uint16{0x1FF, 0x1FE, 0x1FF} {
			if ev := sc.Step(noise); ev != ScanDead {
				t.Fatalf("rule %d: noise symbol %#03x gave %d, want dead", i, noise, ev)
			}
		}
		steps := rs[i].Steps
		for j, st := range steps {
			ev := sc.Step(st.Sym)
			want := ScanLive
			if j == len(steps)-1 {
				want = ScanHit
			}
			if ev != want {
				t.Fatalf("rule %d step %d: event %d, want %d", i, j, ev, want)
			}
			if want == ScanLive && sc.Depth() != j+1 {
				t.Fatalf("rule %d step %d: depth %d, want %d", i, j, sc.Depth(), j+1)
			}
		}
	}
}
