package campaign

import (
	"strings"
	"testing"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

const specGapToGo = `{
  "name": "gap-to-go",
  "seed": 7,
  "duration_ms": 900,
  "tx_queue_limit": 4,
  "faults": [
    {
      "direction": "both",
      "commands": ["COMPARE -- -- -- X0C", "CORRUPT REPLACE -- -- -- X03"],
      "mode": "on",
      "duty_on_ms": 1,
      "duty_period_ms": 100
    }
  ]
}`

func TestParseSpecValid(t *testing.T) {
	s, err := ParseSpec([]byte(specGapToGo))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "gap-to-go" || len(s.Faults) != 1 {
		t.Errorf("parsed spec wrong: %+v", s)
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"name":"x","typo_field":1,"faults":[]}`,
		"no name":        `{"faults":[]}`,
		"bad direction":  `{"name":"x","faults":[{"direction":"up","commands":["A"]}]}`,
		"bad mode":       `{"name":"x","faults":[{"mode":"sometimes","commands":["A"]}]}`,
		"half duty":      `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":5}]}`,
		"duty > period":  `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":50,"duty_period_ms":5}]}`,
		"empty commands": `{"name":"x","faults":[{"commands":[]}]}`,
		"not json":       `{`,
	}
	for name, raw := range cases {
		if _, err := ParseSpec([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Specs that decode but that RunSpec cannot run must fail to parse. Before
// this check a negative at_ms panicked with a negative delay, a duty period
// that converts to no simulated time divided by zero, and times beyond the
// picosecond clock overflowed into negative delays.
func TestParseSpecRejectsUnrunnable(t *testing.T) {
	for _, tc := range []struct{ name, spec, want string }{
		{"negative at_ms", `{"name":"x","faults":[{"commands":["A"],"at_ms":-1}]}`, "at_ms"},
		{"negative duration_ms", `{"name":"x","duration_ms":-5,"faults":[]}`, "duration_ms"},
		{"negative duty_on_ms", `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":-1,"duty_period_ms":-1}]}`, "duty_on_ms"},
		{"negative duty_period_ms", `{"name":"x","faults":[{"commands":["A"],"duty_period_ms":-1}]}`, "duty_period_ms"},
		{"negative load.period_ms", `{"name":"x","load":{"period_ms":-1},"faults":[]}`, "load.period_ms"},
		{"negative tx_queue_limit", `{"name":"x","tx_queue_limit":-1,"faults":[]}`, "negative count"},
		{"negative load.burst", `{"name":"x","load":{"burst":-3},"faults":[]}`, "negative count"},
		{"negative load.size", `{"name":"x","load":{"size":-512},"faults":[]}`, "negative count"},
		{"load.size below its tag", `{"name":"x","load":{"size":3},"faults":[]}`, "minimum"},
		{"duty period under 1ps", `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":1e-12,"duty_period_ms":1e-12}]}`, "picosecond"},
		{"at_ms beyond the clock", `{"name":"x","faults":[{"commands":["A"],"at_ms":1e300}]}`, "at_ms"},
		{"duration beyond the clock", `{"name":"x","duration_ms":1e12,"faults":[]}`, "duration_ms"},
		{"duty period beyond the clock", `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":1,"duty_period_ms":1e15}]}`, "duty_period_ms"},
		{"load period beyond the clock", `{"name":"x","load":{"period_ms":1e10},"faults":[]}`, "load.period_ms"},
		{"1ps duty over the default second", `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":1e-9,"duty_period_ms":1e-9}]}`, "periods"},
		{"duty periods past the bound", `{"name":"x","duration_ms":100.001,"faults":[{"commands":["A"],"duty_on_ms":1e-3,"duty_period_ms":1e-3}]}`, "periods"},
	} {
		_, err := ParseSpec([]byte(tc.spec))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	// The smallest legal values still parse, and run: a one-picosecond
	// duty period over a window that holds just under maxDutyPeriods of
	// them, and a one-picosecond on-window.
	s, err := ParseSpec([]byte(`{"name":"ps","duration_ms":9e-5,"faults":[{"commands":["A"],"duty_on_ms":1e-9,"duty_period_ms":1e-9}]}`))
	if err != nil {
		t.Fatalf("one-picosecond duty period rejected: %v", err)
	}
	RunSpec(s)
	s, err = ParseSpec([]byte(`{"name":"edge","duration_ms":5,"load":{"size":9},"faults":[{"commands":["COMPARE -- -- -- X0C"],"at_ms":0,"duty_on_ms":1e-9,"duty_period_ms":1}]}`))
	if err != nil {
		t.Fatalf("edge spec rejected: %v", err)
	}
	if res := RunSpec(s); res.Sent == 0 {
		t.Errorf("edge spec sent nothing: %+v", res)
	}
}

func TestRunSpecBaseline(t *testing.T) {
	res := RunSpec(Spec{Name: "baseline", Seed: 1, DurationMS: 500})
	if res.Sent == 0 || res.Received != res.Sent {
		t.Errorf("baseline spec lost traffic: %+v", res)
	}
	if res.Classification != "no-effect" {
		t.Errorf("classification = %q, want no-effect", res.Classification)
	}
	if res.Injections != 0 {
		t.Errorf("injections = %d with no faults", res.Injections)
	}
}

func TestRunSpecGapCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run; skipped in -short")
	}
	s, err := ParseSpec([]byte(specGapToGo))
	if err != nil {
		t.Fatal(err)
	}
	res := RunSpec(s)
	if res.Injections == 0 {
		t.Fatal("spec campaign injected nothing")
	}
	if res.Received >= res.Sent {
		t.Errorf("no loss from GAP corruption: %+v", res)
	}
	if res.Classification != "passive" {
		t.Errorf("classification = %q, want passive", res.Classification)
	}
	out := FormatSpecResult(res)
	if !strings.Contains(out, "gap-to-go") || !strings.Contains(out, "injections=") {
		t.Errorf("FormatSpecResult output malformed: %q", out)
	}
}

func TestRunSpecOnceMode(t *testing.T) {
	res := RunSpec(Spec{
		Name:       "once",
		Seed:       3,
		DurationMS: 300,
		Faults: []FaultSpec{{
			Commands: []string{"COMPARE -- -- -- X0C", "CORRUPT REPLACE -- -- -- X03"},
			Mode:     "once",
			AtMS:     50,
		}},
	})
	// Once per direction: at most 2 injections.
	if res.Injections == 0 || res.Injections > 2 {
		t.Errorf("once-mode injections = %d, want 1-2", res.Injections)
	}
}

// RunTable4Row and RunSpec are two entry points to one load-campaign
// runner: the GAP->GO row and the equivalent JSON spec must agree.
func TestTable4RowMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run; skipped in -short")
	}
	row := RunTable4Row(myrinet.SymbolGap, myrinet.SymbolGo, Table4Options{Seed: 7, Duration: 900 * sim.Millisecond})
	s, err := ParseSpec([]byte(specGapToGo))
	if err != nil {
		t.Fatal(err)
	}
	res := RunSpec(s)
	if row.Sent != res.Sent || row.Received != res.Received ||
		row.Outcome.CorruptAccepted != res.CorruptAccepted || row.Outcome.Classification != res.Classification {
		t.Errorf("table 4 row %d/%d corrupt=%d %s, spec %d/%d corrupt=%d %s",
			row.Sent, row.Received, row.Outcome.CorruptAccepted, row.Outcome.Classification,
			res.Sent, res.Received, res.CorruptAccepted, res.Classification)
	}
}

// A fault's at_ms counts from the start of the load: every fault is
// programmed before the load starts, so listing a never-armed fault before
// or after a metered one changes nothing.
func TestSpecFaultTimesFromLoadStart(t *testing.T) {
	metered := FaultSpec{
		Direction:    "L",
		Commands:     []string{"COMPARE -- -- -- X0C", "CORRUPT REPLACE -- -- -- X03"},
		AtMS:         3,
		DutyOnMS:     4,
		DutyPeriodMS: 10,
	}
	idle := FaultSpec{
		Direction: "R",
		Commands:  []string{"COMPARE -- -- -- X0C"},
		AtMS:      maxSpecMS,
	}
	first := RunSpec(Spec{Name: "t", Seed: 5, DurationMS: 60, Faults: []FaultSpec{metered, idle}})
	last := RunSpec(Spec{Name: "t", Seed: 5, DurationMS: 60, Faults: []FaultSpec{idle, metered}})
	if first.Injections == 0 {
		t.Fatal("the metered fault never fired")
	}
	if first.Sent != last.Sent || first.Received != last.Received ||
		first.Matches != last.Matches || first.Injections != last.Injections {
		t.Errorf("fault order changed the run: %+v vs %+v", first, last)
	}
}
