package core

import (
	"math/rand"
	"testing"

	"netfi/internal/phy"
	"netfi/internal/rules"
)

// The batch datapath's contract is byte-identical behavior to the per-symbol
// path: same output stream, same counters, same captures, same pipeline
// state — under every register file, rule set, and chunking. These tests
// drive two engines over identical stimuli, one through Process and one
// through ProcessBatch, and diff everything observable.

type batchCursor struct {
	data []byte
	pos  int
}

func (c *batchCursor) next() byte {
	if c.pos >= len(c.data) {
		c.pos++
		return byte(c.pos * 131)
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

var batchMasks = []CharMask{MaskNone, MaskFull, MaskData, 0x100, 0x1F0, 0x003}

func batchConfig(c *batchCursor) Config {
	var cfg Config
	cfg.Match = MatchMode(c.next() % 3)
	cfg.Corrupt = CorruptMode(c.next() % 2)
	cfg.RecomputeCRC = c.next()%2 == 0
	for i := 0; i < WindowSize; i++ {
		cfg.CompareData[i] = phy.Character(c.next()) | phy.Character(c.next()&1)<<8
		cfg.CompareMask[i] = batchMasks[int(c.next())%len(batchMasks)]
		cfg.CorruptData[i] = phy.Character(c.next()) | phy.Character(c.next()&1)<<8
		cfg.CorruptMask[i] = batchMasks[int(c.next())%len(batchMasks)]
	}
	return cfg
}

// batchRules draws 0..2 rules of mixed shapes or, one case in 32, a wide
// set of 33..64 rules whose literal prefixes (4 symbols, the first 2..3) fill
// 3..4 words of the prefilter's shift-and state, so partials carry across
// word boundaries.
func batchRules(c *batchCursor) []rules.Rule {
	n, wide := int(c.next()%3), false
	if c.next()%32 == 0 {
		n, wide = 33+int(c.next()%32), true
	}
	rs := make([]rules.Rule, 0, n)
	for i := 0; i < n; i++ {
		r := rules.Rule{ID: i, Mode: rules.Mode(c.next() % 5), Priority: int(c.next() % 4)}
		switch r.Mode {
		case rules.ModeAfterN:
			r.N = uint64(c.next() % 3)
		case rules.ModeWindow:
			// The armed window reads the executor's symbol clock, which
			// bulk skipping advances without stepping the automaton — keep
			// some windows mid-stream so a clock drift flips fire gating.
			r.N = uint64(c.next()) * 2
		}
		steps := 1 + int(c.next()%4)
		if wide {
			// Rule 0's shorter prefix shifts every later one off the 4-bit
			// grid, so some prefixes straddle a 64-bit word boundary.
			steps = 4
			if i == 0 {
				steps = 2 + int(c.next()%2)
			}
		}
		for j := 0; j < steps; j++ {
			s := rules.Step{
				Sym:  uint16(c.next()) | uint16(c.next()&1)<<8,
				Mask: rules.SymbolMask,
			}
			if wide {
				// Exact gap-free 4-symbol patterns: few starters, full
				// screen width, and an exact DFA that fits its budget.
				r.Steps = append(r.Steps, s)
				continue
			}
			switch c.next() % 8 {
			case 0:
				s.Mask = 0x0FF
			case 1:
				s.Mask = 0 // wildcard step: no usable literal prefix here
			}
			if j > 0 && c.next()%3 == 0 {
				// Mostly contiguous steps, so multi-symbol literal prefixes
				// dominate and the batch prefilter actually engages; the
				// occasional gap cuts the prefix short.
				s.Gap = 1 + int(c.next()%2)
			}
			r.Steps = append(r.Steps, s)
		}
		switch c.next() % 4 {
		case 0:
			r.Action = rules.ActionCapture
		case 1:
			r.Action = rules.ActionToggle
			for v := 0; v <= int(c.next()%2); v++ {
				r.CorruptData = append(r.CorruptData, uint16(c.next())&rules.SymbolMask)
			}
		case 2:
			r.Action = rules.ActionReplace
			for v := 0; v <= int(c.next()%2); v++ {
				r.CorruptData = append(r.CorruptData, uint16(c.next())&rules.SymbolMask)
				r.CorruptMask = append(r.CorruptMask, uint16(c.next())&rules.SymbolMask)
			}
		case 3:
			r.Action = rules.ActionDrop
			r.DropCount = 1 + int(c.next()%2)
		}
		rs = append(rs, r)
	}
	return rs
}

// batchStream biases characters toward the compare pattern and rule anchors
// so matches, injections and CRC substitutions all happen, with GAP and
// RESET control symbols mixed in for packet framing.
func batchStream(c *batchCursor, cfg Config, rs []rules.Rule, n int) []phy.Character {
	pool := []phy.Character{
		phy.ControlChar(0x0C), // GAP: packet framing + CRC reset
		phy.ControlChar(LinkResetCode),
		phy.ControlChar(0x00),
		phy.DataChar(0x00),
	}
	for i := 0; i < WindowSize; i++ {
		pool = append(pool, cfg.CompareData[i]&(dcFlag|0xFF))
	}
	for i := range rs {
		for _, s := range rs[i].Steps {
			pool = append(pool, phy.Character(s.Sym)&(dcFlag|0xFF))
		}
	}
	stream := make([]phy.Character, 0, n)
	for len(stream) < n {
		b := c.next()
		switch {
		case b%16 == 0:
			// A long packet: a data run far exceeding the slack (so the
			// cut-through path pops mid-packet), a late pattern hit, then
			// GAP — the shape that makes CRC substitution consume a
			// bulk-maintained running CRC.
			run := 24 + int(c.next()%72)
			for k := 0; k < run && len(stream) < n; k++ {
				if c.next()%8 == 0 {
					stream = append(stream, pool[int(c.next())%len(pool)]|dcFlag)
				} else {
					stream = append(stream, phy.DataChar(c.next()))
				}
			}
			stream = append(stream, phy.ControlChar(0x0C))
		case b%16 == 3 && len(rs) > 0:
			// A leading run of some rule's steps, back to back: whole
			// prefixes make the screen hit, cut-short ones leave partials
			// that die or straddle a chunk boundary.
			steps := rs[int(c.next())%len(rs)].Steps
			for _, st := range steps[:1+int(c.next())%len(steps)] {
				stream = append(stream, phy.Character(st.Sym)&(dcFlag|0xFF))
			}
		case b&3 != 3:
			stream = append(stream, pool[int(b>>2)%len(pool)])
		default:
			stream = append(stream, phy.Character(c.next())|phy.Character(c.next()&1)<<8)
		}
	}
	return stream[:n]
}

func diffEngines(t *testing.T, caseN, chunkN int, ref, batch *Engine) {
	t.Helper()
	rc, rm, ri := ref.Stats()
	bc, bm, bi := batch.Stats()
	if rc != bc || rm != bm || ri != bi {
		t.Fatalf("case %d chunk %d: stats diverged: per-symbol (%d,%d,%d), batch (%d,%d,%d)",
			caseN, chunkN, rc, rm, ri, bc, bm, bi)
	}
	if ref.DroppedChars() != batch.DroppedChars() {
		t.Fatalf("case %d chunk %d: dropped diverged: %d vs %d", caseN, chunkN, ref.DroppedChars(), batch.DroppedChars())
	}
	if ref.ResetsSeen() != batch.ResetsSeen() {
		t.Fatalf("case %d chunk %d: resets diverged: %d vs %d", caseN, chunkN, ref.ResetsSeen(), batch.ResetsSeen())
	}
	if ref.Pending() != batch.Pending() {
		t.Fatalf("case %d chunk %d: pending diverged: %d vs %d", caseN, chunkN, ref.Pending(), batch.Pending())
	}
}

// checkEngineBatchCase reports whether the case armed a screen of three or
// more shift-and words.
func checkEngineBatchCase(t *testing.T, caseN int, data []byte) (wide bool) {
	c := &batchCursor{data: data}
	slacks := []int{WindowSize, WindowSize + 1, 8, DefaultSlackChars}
	slack := slacks[int(c.next())%len(slacks)]
	cfg := batchConfig(c)
	rs := batchRules(c)

	ref := NewEngine(slack)
	batch := NewEngine(slack)
	ref.Configure(cfg)
	batch.Configure(cfg)
	if len(rs) > 0 {
		// Sweep both exact-engine forms: the lane executor's start test and
		// skip take a different path from the DFA's.
		opts := []rules.Options{{}, {ForceLanes: true}}[c.next()%2]
		if p, err := rules.Compile(rs, opts); err == nil {
			if pf := p.Prefilter(); pf != nil && pf.Stats().Words >= 3 {
				wide = true
			}
			if err := ref.SetRuleProgram(p); err != nil {
				t.Fatal(err)
			}
			if err := batch.SetRuleProgram(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	stream := batchStream(c, cfg, rs, 400)
	pos, chunkN := 0, 0
	for pos < len(stream) {
		switch c.next() {
		case 0:
			ref.InjectNow()
			batch.InjectNow()
		case 1:
			m := MatchMode(c.next() % 3)
			ref.SetMatchMode(m)
			batch.SetMatchMode(m)
		case 2:
			cfg2 := batchConfig(c)
			ref.Configure(cfg2)
			batch.Configure(cfg2)
		}
		n := 1 + int(c.next())%48
		if pos+n > len(stream) {
			n = len(stream) - pos
		}
		chunk := stream[pos : pos+n]
		outR := ref.Process(chunk)
		outB := batch.ProcessBatch(chunk)
		if len(outR) != len(outB) {
			t.Fatalf("case %d chunk %d: output length diverged: %d vs %d\nper-symbol: %v\nbatch:      %v",
				caseN, chunkN, len(outR), len(outB), outR, outB)
		}
		for k := range outR {
			if outR[k] != outB[k] {
				t.Fatalf("case %d chunk %d: output[%d] diverged: %v vs %v\nper-symbol: %v\nbatch:      %v",
					caseN, chunkN, k, outR[k], outB[k], outR, outB)
			}
		}
		diffEngines(t, caseN, chunkN, ref, batch)
		pos += n
		chunkN++
	}

	flushR := ref.Flush()
	flushB := batch.Flush()
	if len(flushR) != len(flushB) {
		t.Fatalf("case %d: flush length diverged: %d vs %d", caseN, len(flushR), len(flushB))
	}
	for k := range flushR {
		if flushR[k] != flushB[k] {
			t.Fatalf("case %d: flush[%d] diverged: %v vs %v", caseN, k, flushR[k], flushB[k])
		}
	}
	evR, evB := ref.Capture().Events(), batch.Capture().Events()
	if len(evR) != len(evB) {
		t.Fatalf("case %d: capture event count diverged: %d vs %d", caseN, len(evR), len(evB))
	}
	for k := range evR {
		if evR[k].PreLen != evB[k].PreLen || len(evR[k].Context) != len(evB[k].Context) {
			t.Fatalf("case %d: capture %d geometry diverged: (%d,%d) vs (%d,%d)",
				caseN, k, evR[k].PreLen, len(evR[k].Context), evB[k].PreLen, len(evB[k].Context))
		}
		for x := range evR[k].Context {
			if evR[k].Context[x] != evB[k].Context[x] {
				t.Fatalf("case %d: capture %d context[%d] diverged: %v vs %v",
					caseN, k, x, evR[k].Context[x], evB[k].Context[x])
			}
		}
	}
	return wide
}

// TestProcessBatchEquivalence10k drives ten thousand seeded random cases —
// register files, rule sets, control-symbol framing, mid-stream
// reconfiguration and InjectNow, random chunkings — through both datapaths.
func TestProcessBatchEquivalence10k(t *testing.T) {
	cases := 10_000
	if testing.Short() {
		cases = 1_000
	}
	rng := rand.New(rand.NewSource(640)) // the paper's 640 Mb/s link rate
	buf := make([]byte, 1024)
	wide := 0
	for i := 0; i < cases; i++ {
		rng.Read(buf)
		if checkEngineBatchCase(t, i, buf) {
			wide++
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	// batchRules draws a wide set in one case of 32; make sure the
	// generator keeps reaching screens whose partials cross word boundaries.
	if wide < cases/100 {
		t.Fatalf("only %d of %d cases armed a 3-4 word screen", wide, cases)
	}
}

// FuzzProcessBatch lets the fuzzer search for a stimulus separating the two
// datapaths. Run with: go test -fuzz=FuzzProcessBatch ./internal/core
func FuzzProcessBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0C, 0x05, 0xFF})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 16; i++ {
		buf := make([]byte, 64+rng.Intn(512))
		rng.Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEngineBatchCase(t, 0, data)
	})
}

// A rule prefix straddling two ProcessBatch calls must still fire: the scan
// holds back partials still viable at the end of a call for per-symbol
// verification, instead of skipping them as clean.
func TestProcessBatchPrefixAcrossCalls(t *testing.T) {
	p, err := rules.Compile([]rules.Rule{{
		ID: 0, Mode: rules.ModeOn, Action: rules.ActionToggle, CorruptData: []uint16{0x0F},
		Steps: []rules.Step{
			{Sym: 0x141, Mask: rules.SymbolMask},
			{Sym: 0x142, Mask: rules.SymbolMask},
			{Sym: 0x143, Mask: rules.SymbolMask},
		},
	}}, rules.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Prefilter() == nil {
		t.Fatal("three-symbol prefix compiled without a screen")
	}
	stream := dataChars([]byte{7, 7, 0x41, 0x42, 0x43, 7})
	for cut := 1; cut < 3; cut++ {
		e := NewEngine(DefaultSlackChars)
		if err := e.SetRuleProgram(p); err != nil {
			t.Fatal(err)
		}
		boundary := 2 + cut // split inside the prefix
		out := append([]phy.Character(nil), e.ProcessBatch(stream[:boundary])...)
		out = append(out, e.ProcessBatch(stream[boundary:])...)
		out = append(out, e.Flush()...)
		if m, f, _ := e.RuleCounters(0); m != 1 || f != 1 {
			t.Fatalf("cut %d: rule counters (%d,%d), want (1,1)", cut, m, f)
		}
		if got, want := bytesOf(out), []byte{7, 7, 0x41, 0x42, 0x4C, 7}; string(got) != string(want) {
			t.Fatalf("cut %d: out % X, want % X", cut, got, want)
		}
	}
}

// planScan's verdict shapes for a rule screen alone (no compare window): a
// hit rewinds by MaxLen-1, a partial at the span's end is held back, dead
// partials are cleaned through.
func TestPlanScanSplits(t *testing.T) {
	p, err := rules.Compile([]rules.Rule{{
		ID: 0, Mode: rules.ModeOn, Action: rules.ActionCapture,
		Steps: []rules.Step{
			{Sym: 0x141, Mask: rules.SymbolMask},
			{Sym: 0x142, Mask: rules.SymbolMask},
		},
	}}, rules.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultSlackChars)
	if err := e.SetRuleProgram(p); err != nil {
		t.Fatal(err)
	}
	e.rebuildPlan()
	cases := []struct {
		name        string
		data        []byte
		clean, hold int
	}{
		{"all quiet", []byte{1, 2, 3, 4}, 4, 0},
		{"hit mid-run", []byte{1, 2, 0x41, 0x42, 7}, 2, 2},
		{"hit at start", []byte{0x41, 0x42, 7}, 0, 2},
		{"partial at end", []byte{1, 2, 0x41}, 2, 1},
		{"dead partial cleaned", []byte{1, 0x41, 9, 2}, 4, 0},
		// The first 0x41's partial died when the second arrived; the hit
		// rewind only needs MaxLen symbols, so position 0 stays clean.
		{"restart inside partial", []byte{0x41, 0x41, 0x42}, 1, 2},
	}
	for _, tc := range cases {
		clean, hold, _ := e.planScan(dataChars(tc.data))
		if clean != tc.clean || hold != tc.hold {
			t.Errorf("%s: planScan = (%d,%d), want (%d,%d)", tc.name, clean, hold, tc.clean, tc.hold)
		}
	}
}

// A taint leak would be invisible to the equivalence suite — the engine
// would just fall back to per-symbol forever — so pin the accounting
// directly: once every corrupted slot has retired, the fast path re-arms.
func TestTaintDrainsAfterInjection(t *testing.T) {
	e := NewEngine(DefaultSlackChars)
	e.Configure(Config{
		Match:       MatchOnce,
		CompareData: [WindowSize]phy.Character{0, 0, 0, phy.DataChar(0x42)},
		CompareMask: [WindowSize]CharMask{0, 0, 0, MaskFull},
		Corrupt:     CorruptToggle,
		CorruptData: [WindowSize]phy.Character{0, 0, 0, 0x0F},
	})
	burst := phy.DataChars(make([]byte, 64))
	burst[10] = phy.DataChar(0x42)
	e.ProcessBatch(burst)
	_, _, inj := e.Stats()
	if inj != 1 {
		t.Fatalf("injections = %d, want 1", inj)
	}
	if e.taint != 0 {
		t.Fatalf("taint = %d after the corrupted slot retired, want 0", e.taint)
	}
	if !e.bulkEligible() {
		t.Fatal("bulk path did not re-arm after the injection drained")
	}
}

// The cut-through path must stay allocation-free like the per-symbol path.
func TestProcessBatchNoAllocs(t *testing.T) {
	e := NewEngine(DefaultSlackChars)
	burst := phy.DataChars(make([]byte, 1024))
	e.ProcessBatch(burst) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		e.ProcessBatch(burst)
	})
	if allocs != 0 {
		t.Errorf("ProcessBatch allocates %.1f times per burst; want 0", allocs)
	}
}
