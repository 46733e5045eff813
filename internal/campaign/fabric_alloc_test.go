package campaign

import (
	"runtime"
	"testing"

	"netfi/internal/topo"
)

// The fabric's run phase — host sends, link bursts, switch forwarding,
// flow control and reassembly — allocates from per-kernel arenas and
// recycled records, not per packet. Set-up (topo.Build, arming the flood)
// is excluded; what remains is first-use growth of per-port buffers, which
// a long enough flood amortizes well below the budget.
func TestFabricRunAllocsPerPacket(t *testing.T) {
	const budget = 2.0
	tb, err := NewFabricTestbed(FabricConfig{
		Topo:    topo.Config{Switches: 32, Hosts: 256, Shards: 1, Seed: 11},
		Packets: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drained := tb.Run()
	runtime.ReadMemStats(&after)
	_, delivered, _ := tb.Totals()
	if !drained || delivered != 256*60 {
		t.Fatalf("flood did not complete: drained=%v delivered=%d", drained, delivered)
	}
	perPacket := float64(after.Mallocs-before.Mallocs) / float64(delivered)
	t.Logf("run phase: %d allocations for %d packets (%.2f per packet)", after.Mallocs-before.Mallocs, delivered, perPacket)
	if perPacket > budget {
		t.Errorf("run phase allocates %.2f objects per delivered packet, want <= %.0f", perPacket, budget)
	}
}
