package campaign

import (
	"fmt"
	"sort"
	"strings"

	"netfi/internal/monitor"
	"netfi/internal/myrinet"
	"netfi/internal/phy"
)

// Fingerprint writers shared by the fork-equivalence digest
// (chaosFingerprint) and the shard-equivalence digest (fabricFingerprint):
// one renderer each for a switch, a cable set and a flow-record list, so
// both gates compare the same fields in the same form.

// writeCounters renders one counter block with the drop map in sorted
// order (map iteration would make fingerprints incomparable).
func writeCounters(b *strings.Builder, label string, c *myrinet.Counters) {
	fmt.Fprintf(b, "%s sent=%d recv=%d fwd=%d in=%d out=%d stops=%d/%d gos=%d/%d sto=%d lto=%d ovf=%d lr=%d rr=%d wd=%d bt=%d fl=%d drops=",
		label, c.PacketsSent, c.PacketsReceived, c.PacketsForwarded,
		c.CharsIn, c.CharsOut, c.StopsSent, c.StopsReceived, c.GosSent,
		c.GosReceived, c.ShortTimeouts, c.LongTimeouts, c.OverflowChars,
		c.LinkResets, c.ResetsReceived, c.StopWatchdogFires,
		c.BlockedTimeouts, c.FlushedChars)
	reasons := make([]int, 0, len(c.Drops))
	for r := range c.Drops {
		reasons = append(reasons, int(r))
	}
	sort.Ints(reasons)
	for _, r := range reasons {
		fmt.Fprintf(b, "%d:%d,", r, c.Drops[myrinet.DropReason(r)])
	}
	b.WriteByte('\n')
}

// writeSwitch renders every port's counters and the switch's held-output
// count.
func writeSwitch(b *strings.Builder, sw *myrinet.Switch) {
	for p := 0; p < sw.Ports(); p++ {
		writeCounters(b, fmt.Sprintf("%s.p%d", sw.Name(), p), sw.PortCounters(p))
	}
	fmt.Fprintf(b, "%s held=%d\n", sw.Name(), sw.HeldOutputs())
}

// writeCables renders both directions' link totals for each cable, in the
// order given.
func writeCables(b *strings.Builder, cables []*phy.Cable) {
	for _, c := range cables {
		for _, l := range []*phy.Link{c.LeftToRight, c.RightToLeft} {
			chars, bursts := l.Stats()
			fmt.Fprintf(b, "link %s chars=%d bursts=%d severed=%d\n",
				l.Name(), chars, bursts, l.SeveredChars())
		}
	}
}

// writeFlows renders exported flow records.
func writeFlows(b *strings.Builder, recs []monitor.FlowRecord) {
	for _, rec := range recs {
		fmt.Fprintf(b, "flow %s %v pkts=%d bytes=%d %d..%d cause=%v\n",
			rec.Tap, rec.Key, rec.Packets, rec.Bytes, rec.First, rec.Last, rec.Cause)
	}
}
