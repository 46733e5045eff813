package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"netfi/internal/bitstream"
	"netfi/internal/myrinet"
	"netfi/internal/phy"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestGeneratorsDeterministic(t *testing.T) {
	rs1, pairs1 := genRules(7, 64)
	rs2, pairs2 := genRules(7, 64)
	if !reflect.DeepEqual(rs1, rs2) || !reflect.DeepEqual(pairs1, pairs2) {
		t.Fatal("genRules differs for the same seed")
	}
	if rs3, _ := genRules(8, 64); reflect.DeepEqual(rs1, rs3) {
		t.Fatal("genRules ignores the seed")
	}
	seen := make(map[[2]byte]bool)
	for _, p := range pairs1 {
		if seen[p] {
			t.Fatalf("opening pair %x used twice", p)
		}
		seen[p] = true
	}

	s1, s2 := genStream(7, 1<<16, pairs1), genStream(7, 1<<16, pairs1)
	if !slices.Equal(s1.chars, s2.chars) || len(s1.bursts) != len(s2.bursts) || s1.planted != s2.planted {
		t.Fatal("genStream differs for the same seed")
	}
	if s3 := genStream(8, 1<<16, pairs1); slices.Equal(s1.chars, s3.chars) {
		t.Fatal("genStream ignores the seed")
	}
	if len(s1.chars) < 1<<16 || s1.planted != s1.packets/plantEvery {
		t.Fatalf("stream of %d chars, %d packets, %d planted", len(s1.chars), s1.packets, s1.planted)
	}
	// Every packet decodes with a good CRC; one in plantEvery carries a
	// rule's opening pair.
	packets, planted := 0, 0
	var wire []byte
	for _, c := range s1.chars {
		switch {
		case c.IsData():
			wire = append(wire, c.Byte())
		case c == phy.ControlChar(myrinet.SymGap):
			route := 1
			for wire[route-1]&myrinet.RouteSwitchFlag != 0 {
				route++
			}
			p, err := myrinet.DecodePacket(wire, route)
			if err != nil {
				t.Fatalf("packet %d: %v", packets, err)
			}
			for i := 0; i+1 < len(p.Payload); i++ {
				if slices.Contains(pairs1, [2]byte{p.Payload[i], p.Payload[i+1]}) {
					planted++
					break
				}
			}
			packets++
			wire = wire[:0]
		}
	}
	if packets != s1.packets || planted != s1.planted {
		t.Fatalf("decoded %d packets, %d planted; generator says %d, %d", packets, planted, s1.packets, s1.planted)
	}

	var joined []uint16
	for _, b := range s1.bursts {
		if len(b) < 1 || len(b) > 2048 {
			t.Fatalf("burst of %d chars", len(b))
		}
		for _, c := range b {
			joined = append(joined, uint16(c))
		}
	}
	for i, c := range s1.chars {
		if joined[i] != uint16(c) {
			t.Fatal("bursts do not cover the stream in order")
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"netfi/internal/myrinet.(*LinkController).Receive": "myrinet",
		"netfi/internal/sim.(*Kernel).sweep":               "sim",
		"netfi/internal/synth.Table1":                      "other",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKey":          "runtime",
		"runtime/pprof.(*profMap).lookup":                  "other",
		"internal/sync.(*Mutex).lockSlow":                  "other",
		"main.runFabric":                                   "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if !isMutexFrame("internal/sync.(*Mutex).Lock") || !isMutexFrame("sync.(*Mutex).Unlock") || isMutexFrame("sync.(*WaitGroup).Wait") {
		t.Error("isMutexFrame misclassifies")
	}
}

func TestFoldSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	data := make([]byte, 1<<16)
	var sink byte
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		sink ^= bitstream.CRC8(data)
	}
	pprof.StopCPUProfile()
	_ = sink

	f := newFold()
	if err := f.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if f.total == 0 {
		t.Skip("no CPU samples collected")
	}
	shares := f.shares()
	sum := 0.0
	for _, l := range append(slices.Clone(foldLayers), "other") {
		sum += shares[l+".cpu_share"]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("layer shares sum to %v: %v", sum, shares)
	}
	if shares["bitstream.cpu_share"] < 0.5 {
		t.Errorf("a CRC-8 loop folded to bitstream.cpu_share %v", shares["bitstream.cpu_share"])
	}
}

// TestMetricNames keeps the emitted names and units equal to BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's perLayer")
	}
	seen := make(map[string]bool)
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !nameRE.MatchString(d.Name) || d.Unit == "" || seen[d.Name] {
			t.Errorf("bad metric %q unit %q (or repeated)", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload small, untraced and traced: no operation
// may fail, and each run must emit exactly its metric list.
func TestSmoke(t *testing.T) {
	netfi := filepath.Join(t.TempDir(), "netfi")
	if out, err := exec.Command("go", "build", "-o", netfi, "netfi/cmd/netfi").CombinedOutput(); err != nil {
		t.Fatalf("building netfi: %v\n%s", err, out)
	}
	small := sizes{Switches: 16, Hosts: 64, Packets: 4, Scale: 0.072, StreamChars: 1 << 16, Rules: 64}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{Workload: w, Seed: 3, Seconds: time.Millisecond, Trace: trace, Sizes: small, Netfi: netfi, Root: ".."}
			res, env, spans, err := measure(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
				if len(spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w)
				}
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v %q", w, name, m.Value, m.Unit)
				}
			}
			var names []string
			for _, d := range want {
				names = append(names, d.Name)
			}
			slices.Sort(got)
			slices.Sort(names)
			if !slices.Equal(got, names) {
				t.Errorf("%s trace=%v: emitted %v, want %v", w, trace, got, names)
			}
			if !trace && res.Metrics["cpu_s"].Value <= 0 {
				t.Errorf("%s: cpu_s %v", w, res.Metrics["cpu_s"].Value)
			}
			if env.GoVersion == "" || env.NumCPU < 1 || len(env.Source) != 64 {
				t.Errorf("%s: environment record %+v", w, env)
			}
		}
	}
}

func TestDiffSections(t *testing.T) {
	var b strings.Builder
	for _, s := range paperSections {
		b.WriteString("==== " + s.name + " ====\nbody of " + s.name + "\n\n")
	}
	report := b.String()
	if n := diffSections(report, report); n != 0 {
		t.Fatalf("identical reports differ in %d sections", n)
	}
	if n := diffSections(strings.Replace(report, "body of chaos", "body of chaoz", 1), report); n != 1 {
		t.Fatalf("one changed section counted as %d", n)
	}
	if n := diffSections(report, ""); n != len(paperSections) {
		t.Fatalf("an empty reference counted %d differing sections", n)
	}
}
