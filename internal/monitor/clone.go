package monitor

import (
	"fmt"

	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). The monitoring plane's cloning rules:
//
//   - Taps register in the mapper so the myrinet layer's deferred tap
//     lookups (LinkController.Clone) land on the fork's observation points.
//   - Probes are NOT cloned: their counter/gauge closures capture
//     campaign-owned objects of the old world. A campaign that wants probes
//     in the fork re-adds them post-fork against the cloned objects —
//     AddCounterProbe snapshots the counter at registration, so a re-added
//     probe sees no spurious delta.
//   - The export ring, flow caches, detectors, and the event log all deep
//     copy; the fork's detections diverge from the base from the fork point
//     on without back-propagating.

// Clone copies the accrual detector's inter-arrival window and clock.
func (d *PhiDetector) Clone() *PhiDetector {
	d2 := &PhiDetector{}
	*d2 = *d
	d2.samples = append([]sim.Duration(nil), d.samples...)
	return d2
}

// Clone copies the shift detector: frozen/accruing baseline and the EWMA.
func (d *ShiftDetector) Clone() *ShiftDetector {
	d2 := &ShiftDetector{base: d.base}
	e := *d.recent
	d2.recent = &e
	return d2
}

// Clone copies the export ring: buffered records and drop accounting.
func (r *ExportRing) Clone() *ExportRing {
	r2 := &ExportRing{}
	*r2 = *r
	r2.buf = append([]FlowRecord(nil), r.buf...)
	return r2
}

// Clone copies the flow table into ring (the fork plane's export ring). A
// flowState can sit in both the order slice (dead, pre-compaction) and the
// free list, so identity is preserved through a local translation map.
func (t *FlowTable) Clone(ring *ExportRing) *FlowTable {
	t2 := &FlowTable{
		tap:     t.tap,
		active:  make(map[FlowKey]*flowState, len(t.active)),
		ring:    ring,
		idle:    t.idle,
		flows:   t.flows,
		packets: t.packets,
		bytes:   t.bytes,
	}
	states := make(map[*flowState]*flowState, len(t.order)+len(t.free))
	dup := func(st *flowState) *flowState {
		if st2, ok := states[st]; ok {
			return st2
		}
		st2 := &flowState{rec: st.rec, dead: st.dead}
		states[st] = st2
		return st2
	}
	if len(t.order) > 0 {
		t2.order = make([]*flowState, len(t.order))
		for i, st := range t.order {
			t2.order[i] = dup(st)
		}
	}
	if len(t.free) > 0 {
		t2.free = make([]*flowState, len(t.free))
		for i, st := range t.free {
			t2.free[i] = dup(st)
		}
	}
	for key, st := range t.active {
		t2.active[key] = dup(st)
	}
	return t2
}

// clone copies the tap into the fork plane, registering it so stream owners
// (link controllers) rewire to it in the deferred pass.
func (t *Tap) clone(m *sim.Mapper, p2 *Plane) *Tap {
	t2 := &Tap{}
	*t2 = *t // name, burst clock, reassembly buffer, counters
	t2.plane = p2
	if t.flows != nil {
		t2.flows = t.flows.Clone(p2.ring)
	}
	if t.detector != nil {
		t2.detector = t.detector.Clone()
		m.Put(t.detector, t2.detector)
	}
	if t.gap != nil {
		t2.gap = t.gap.Clone()
	}
	m.Put(t, t2)
	return t2
}

// Clone forks the monitoring plane: every tap with its flow cache and
// detectors, the shared export ring, the suspicion state machine, and the
// event log. The sampling ticker carries its phase across the fork, so the
// fork's next tick lands exactly where the base's would have. Probes do not
// cross the fork (see the package rules above).
func (p *Plane) Clone(m *sim.Mapper) *Plane {
	p2 := &Plane{
		k:             m.Kernel(),
		cfg:           p.cfg,
		ring:          p.ring.Clone(),
		events:        append([]Event(nil), p.events...),
		eventOverflow: p.eventOverflow,
	}
	m.Put(p, p2)
	p2.ticker = p.ticker.Clone(m, p2.tick)
	if len(p.taps) > 0 {
		p2.taps = make([]*Tap, len(p.taps))
		for i, t := range p.taps {
			p2.taps[i] = t.clone(m, p2)
		}
	}
	if len(p.detectors) > 0 {
		p2.detectors = make([]*planeDetector, len(p.detectors))
		for i, pd := range p.detectors {
			v, ok := m.Lookup(pd.d)
			if !ok {
				panic(fmt.Sprintf("monitor: fork: detector %s does not belong to any tap", pd.name))
			}
			p2.detectors[i] = &planeDetector{
				name:      pd.name,
				d:         v.(*PhiDetector),
				suspected: pd.suspected,
			}
		}
	}
	return p2
}
