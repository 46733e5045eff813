package campaign

import (
	"strings"
	"testing"

	"netfi/internal/sim"
)

// specTooLong reports whether running s would take too long for a fuzz
// iteration: more than 200 simulated milliseconds (the default duration is
// a second), a large offered load, many metering periods, or a long
// console script. Such inputs are skipped,
// never clamped, so every spec that does run is exactly the one parsed.
func specTooLong(s Spec) bool {
	duration := specDuration(s)
	if duration > 200*sim.Millisecond || len(s.Faults) > 8 {
		return true
	}
	period := ms(s.Load.PeriodMS)
	if period == 0 {
		period = 12_500 * sim.Microsecond
	}
	burst, size := s.Load.Burst, s.Load.Size
	if burst == 0 {
		burst = 10
	}
	if size > 9000 || float64(duration/period+1)*float64(burst) > 2000 {
		return true
	}
	for _, f := range s.Faults {
		if len(f.Commands) > 32 {
			return true
		}
		for _, c := range f.Commands {
			if len(c) > 256 {
				return true
			}
		}
		if f.DutyPeriodMS > 0 && dutyPeriods(duration, ms(f.AtMS), ms(f.DutyPeriodMS)) > 1000 {
			return true
		}
	}
	return false
}

// FuzzParseSpec holds the campaign spec surface to its contract: every spec
// ParseSpec accepts runs through RunSpec without panicking.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(strings.Replace(specGapToGo, `"duration_ms": 900`, `"duration_ms": 150`, 1)))
	f.Add([]byte(`{"name":"base","duration_ms":50,"faults":[]}`))
	f.Add([]byte(`{"name":"once","seed":3,"duration_ms":40,"mapping":true,"load":{"burst":2,"period_ms":5,"size":64},` +
		`"faults":[{"direction":"L","mode":"once","at_ms":2,"commands":["COMPARE -- -- -- X0C","CORRUPT TOGGLE -- -- -- X01"]}]}`))
	f.Add([]byte(`{"name":"duty","duration_ms":30,"tx_queue_limit":2,"faults":[{"direction":"R","at_ms":1,` +
		`"duty_on_ms":0.5,"duty_period_ms":3,"commands":["CRC ON","STAT"]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if specTooLong(s) {
			t.Skip("spec too long to run in a fuzz iteration")
		}
		RunSpec(s)
	})
}
