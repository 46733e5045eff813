package campaign

import (
	"fmt"
	"strings"

	"netfi/internal/core"
	"netfi/internal/host"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// Table2Experiment is one row of the paper's Table 2: the same ping-pong
// exchange run without and with the fault injector in the data path, and
// the difference of the measured per-packet averages. The uncertainty the
// paper reports (75–1407 ns across five experiments, against a true added
// latency of ~750 ns) comes from the hosts' interrupt granularity: each run
// draws a different timer phase, so the measured averages quantize
// differently.
type Table2Experiment struct {
	Index          int
	WithoutPerPkt  sim.Duration
	WithPerPkt     sim.Duration
	AddedLatency   sim.Duration
	TrueDeviceLag  sim.Duration
	RoundsMeasured int
}

// Table2Options parameterizes the experiment.
type Table2Options struct {
	// Seed drives the per-experiment interrupt phases.
	Seed int64
	// Rounds is the ping-pong round count per run. The paper used one
	// million small packets per side; zero selects 20000, which measures
	// the same averages (scale it up with the cmd/netfi flag for a
	// full-length run).
	Rounds int
	// Workers runs the experiments concurrently; <= 1 is serial. Results
	// are identical either way: the shared phase RNG is drained serially
	// up front, so no rand.Rand crosses a goroutine boundary.
	Workers int
}

const (
	// table2Experiments is the row count, the paper's 5.
	table2Experiments = 5
	// table2Payload is the "small UDP packet" size.
	table2Payload = 32
)

func (o *Table2Options) fillDefaults() {
	if o.Rounds == 0 {
		o.Rounds = 20_000
	}
}

// table2Run builds a two-node network (ports 0 and 1 of an 8-port switch),
// optionally splices the injector into node 0's cable, runs the ping-pong,
// and returns the average time per packet.
func table2Run(seed int64, phaseA, phaseB sim.Duration, rounds int, withInjector bool) (sim.Duration, *core.Device) {
	k := sim.NewKernel(seed)
	net := myrinet.NewNetwork(k)
	sw := net.AddSwitch("sw0", myrinet.DefaultPortCount)
	const jitter = 300 * sim.Nanosecond // cache/interrupt noise
	a := host.NewNode(k, host.NodeConfig{
		Name: "a", MAC: NodeMAC(0), ID: 1, TickPhase: phaseA, OverheadJitter: jitter,
	})
	b := host.NewNode(k, host.NodeConfig{
		Name: "b", MAC: NodeMAC(1), ID: 2, TickPhase: phaseB, OverheadJitter: jitter,
	})
	net.ConnectHost(a.Interface(), sw, 0)
	net.ConnectHost(b.Interface(), sw, 1)
	a.Interface().SetRoute(b.MAC(), myrinet.RouteTo(1))
	b.Interface().SetRoute(a.MAC(), myrinet.RouteTo(0))

	var dev *core.Device
	if withInjector {
		dev = core.NewDevice(k, core.DeviceConfig{
			Name:         "injector",
			ExtraLatency: 500 * sim.Nanosecond, // the Myricom FI3 transceiver pair
		})
		dev.Insert(net.Cables["a"])
	}
	var res host.PingPongResult
	host.PingPong(k, a, b, rounds, table2Payload, func(r host.PingPongResult) { res = r })
	k.Run()
	if res.Rounds != rounds {
		panic(fmt.Sprintf("campaign: ping-pong finished %d/%d rounds", res.Rounds, rounds))
	}
	return res.PerPacket, dev
}

// RunTable2 executes the five experiments.
func RunTable2(opts Table2Options) []Table2Experiment {
	opts.fillDefaults()
	// Independent interrupt phases per run: rebooting the hosts between
	// experiments realigns their timer grids. The draws come from ONE
	// rand.Rand, which must never be shared across trial goroutines —
	// drain it serially here (four draws per experiment, in the original
	// without-A, without-B, with-A, with-B order) before fanning out.
	rng := sim.NewKernel(opts.Seed).Rand()
	phases := make([][4]sim.Duration, table2Experiments)
	for i := range phases {
		for j := 0; j < 4; j++ {
			phases[i][j] = sim.Duration(rng.Int63n(int64(sim.Microsecond)))
		}
	}
	return RunTrials(table2Experiments, opts.Workers, func(i int) Table2Experiment {
		p := phases[i]
		without, _ := table2Run(opts.Seed+int64(100+i), p[0], p[1], opts.Rounds, false)
		with, dev := table2Run(opts.Seed+int64(200+i), p[2], p[3], opts.Rounds, true)
		return Table2Experiment{
			Index:          i + 1,
			WithoutPerPkt:  without,
			WithPerPkt:     with,
			AddedLatency:   with - without,
			TrueDeviceLag:  dev.Latency(),
			RoundsMeasured: opts.Rounds,
		}
	})
}

// FormatTable2 renders the experiments like the paper's Table 2.
func FormatTable2(rows []Table2Experiment) string {
	paper := [][3]int64{ // without[ns], with[ns], added[ns]
		{235213, 235926, 713},
		{235805, 235730, 75},
		{235220, 236107, 887},
		{234973, 236380, 1407},
		{235426, 236134, 708},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %14s %14s %10s   %12s\n",
		"", "without [ns]", "with [ns]", "added", "paper added")
	for _, r := range rows {
		paperAdded := "-"
		if r.Index-1 < len(paper) {
			paperAdded = fmt.Sprintf("%d ns", paper[r.Index-1][2])
		}
		fmt.Fprintf(&b, "Experiment %-2d %14.0f %14.0f %9.0fns   %12s\n",
			r.Index,
			r.WithoutPerPkt.Nanoseconds(), r.WithPerPkt.Nanoseconds(),
			r.AddedLatency.Nanoseconds(), paperAdded)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "true device latency (pipeline+PHY): %v\n", rows[0].TrueDeviceLag)
	}
	return b.String()
}
