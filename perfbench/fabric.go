package main

import (
	"fmt"

	"netfi/internal/campaign"
	"netfi/internal/sim"
	"netfi/internal/topo"
)

// fabricCounts are one fabric run's simulated results. They depend on the
// seed and the traffic only, never on the shard count.
type fabricCounts struct {
	drained                bool
	sent, delivered, bytes uint64
	sendErrs               uint64
	events, chars          uint64
}

func fabricConfig(r *runner, shards int) campaign.FabricConfig {
	s := r.cfg.Sizes
	return campaign.FabricConfig{
		Topo: topo.Config{
			Switches: s.Switches,
			Hosts:    s.Hosts,
			Shards:   shards,
			Seed:     r.cfg.Seed,
		},
		Workload: campaign.WorkloadFlood,
		Packets:  s.Packets,
		// Long enough for any flood this size to drain; Run stops at
		// quiescence, so the limit is never simulated.
		Limit: 10 * sim.Second,
	}
}

func countFabric(tb *campaign.FabricTestbed, drained bool) fabricCounts {
	c := fabricCounts{drained: drained, events: tb.F.Group.Processed(), chars: tb.F.TotalChars()}
	c.sent, c.delivered, c.bytes = tb.Totals()
	for _, n := range tb.SendErrs {
		c.sendErrs += n
	}
	return c
}

// checkFabric counts the run's packets as operations: each one sent must
// be delivered, and the run must drain.
func (r *runner) checkFabric(c fabricCounts) {
	want := uint64(r.cfg.Sizes.Hosts * r.cfg.Sizes.Packets)
	failed := c.sendErrs
	if c.delivered < want {
		failed += want - c.delivered
	}
	if !c.drained && failed == 0 {
		failed = 1
	}
	r.count(int(want), int(failed), "fabric run: drained=%v sent=%d delivered=%d send errors=%d, want %d each",
		c.drained, c.sent, c.delivered, c.sendErrs, want)
}

// runFabric is fabric-flood (1 shard) and fabric-sharded (2 shards): a
// seed-built Clos carrying a 64-byte flood to seed-hashed destinations, run
// to quiescence. Set-up is NewFabricTestbed (topo.Build plus arming the
// flood); the measured unit is Fabric.Run.
func runFabric(r *runner, shards int) error {
	cfg := fabricConfig(r, shards)
	var first fabricCounts
	err := r.loop(func(rep int) error {
		if r.tracing {
			// topo.Build alone, for topo.build_s; the testbed below
			// builds its own fabric.
			var f *topo.Fabric
			var err error
			sp := r.span("topo.Build", func() { f, err = topo.Build(cfg.Topo) })
			if err != nil {
				return err
			}
			f.Close()
			r.sample("topo.build_s", sp.Seconds())
			r.sample("topo.build_allocs", sp.Delta["allocs"])
		}
		var tb *campaign.FabricTestbed
		var err error
		r.setup("campaign.NewFabricTestbed", func() { tb, err = campaign.NewFabricTestbed(cfg) })
		if err != nil {
			return err
		}
		defer tb.Close()
		var drained bool
		sp, err := r.unit("Fabric.Run", func() { drained = tb.Run() })
		if err != nil {
			return err
		}
		c := countFabric(tb, drained)
		r.checkFabric(c)
		if rep == 0 {
			first = c
		} else {
			mismatch := 0
			if c != first {
				mismatch = 1
			}
			r.count(1, mismatch, "rep %d counts %v differ from rep 0's %v", rep, c, first)
		}
		if sp != nil {
			r.fabricSamples(tb, c, sp)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The same seed and traffic at the other shard count must simulate
	// the same events, link characters and deliveries.
	other := 3 - shards
	tb, err := campaign.NewFabricTestbed(fabricConfig(r, other))
	if err != nil {
		return err
	}
	defer tb.Close()
	ref := countFabric(tb, tb.Run())
	mismatch := 0
	if ref != first {
		mismatch = 1
	}
	r.count(1, mismatch, "%d shards counted %v, %d shards %v", shards, first, other, ref)
	return nil
}

// fabricSamples records a traced rep's per-layer metrics.
func (r *runner) fabricSamples(tb *campaign.FabricTestbed, c fabricCounts, sp *span) {
	g := tb.F.Group
	r.sample("sim.events", float64(c.events))
	r.sample("sim.windows", float64(g.Windows()))
	r.sample("sim.exchanged", float64(g.Exchanged()))
	if g.Windows() > 0 {
		r.sample("sim.events_per_window", float64(c.events)/float64(g.Windows()))
	}
	var maxEv, sumEv float64
	for _, k := range tb.F.Kernels {
		n := float64(k.Processed())
		sumEv += n
		if n > maxEv {
			maxEv = n
		}
	}
	if sumEv > 0 {
		r.sample("sim.shard_imbalance", maxEv/(sumEv/float64(len(tb.F.Kernels))))
	}
	r.sample("sim.idle_cpu_s", sp.Delta["idle_cpu_s"])

	var chars, bursts uint64
	for _, cb := range tb.F.Cables {
		for _, l := range [2]interface{ Stats() (uint64, uint64) }{cb.LeftToRight, cb.RightToLeft} {
			n, b := l.Stats()
			chars += n
			bursts += b
		}
	}
	r.sample("phy.chars", float64(chars))
	r.sample("phy.bursts", float64(bursts))
	if bursts > 0 {
		r.sample("phy.chars_per_burst", float64(chars)/float64(bursts))
	}

	var fwd, drops, stops, longTO uint64
	for _, sw := range tb.F.Switches {
		for p := 0; p < sw.Ports(); p++ {
			ctr := sw.PortCounters(p)
			fwd += ctr.PacketsForwarded
			drops += ctr.TotalDrops()
			stops += ctr.StopsSent
			longTO += ctr.LongTimeouts
		}
	}
	for _, h := range tb.F.Hosts {
		ctr := h.Counters()
		drops += ctr.TotalDrops()
		stops += ctr.StopsSent
		longTO += ctr.LongTimeouts
	}
	r.sample("myrinet.packets_forwarded", float64(fwd))
	r.sample("myrinet.drops", float64(drops))
	r.sample("myrinet.stops_sent", float64(stops))
	r.sample("myrinet.long_timeouts", float64(longTO))

	r.sample("campaign.fabric_msym_per_s", float64(c.chars)/sp.Seconds()/1e6)
	r.runtimeSamples(sp)
	if c.sent > 0 {
		r.sample("runtime.allocs_per_packet", sp.Delta["allocs"]/float64(c.sent))
	}
}

func (c fabricCounts) String() string {
	return fmt.Sprintf("drained=%v sent=%d delivered=%d events=%d chars=%d", c.drained, c.sent, c.delivered, c.events, c.chars)
}
