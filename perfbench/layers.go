package main

import (
	"repro/internal/bench"
	"repro/internal/obs"
)

// layerCounts are one system's per-layer counters, read from outside
// through the layers' exported statistics and, when a collector is
// installed, its registry.
type layerCounts struct {
	TLBMisses, TLBFlushes, CR3Writes, PageFaults, Interrupts, IPIs uint64

	Elapsed, Idle [2]uint64 // per CPU, cycles

	VOCalls, VOPTEWrites uint64

	Hypercalls, MMUUpdates, FaultBounces, Multicalls uint64
	HypercallCyc, FaultBounceCyc                     uint64 // collector only

	ClassicRequests, ClassicPackets, ClassicEvents uint64 // collector only
}

// readLayers snapshots s's counters. Safe only while no other simulated
// CPU of s is running.
func readLayers(s *bench.System) layerCounts {
	var l layerCounts
	for i, c := range s.M.CPUs {
		l.TLBMisses += c.TLB.Misses
		l.TLBFlushes += c.TLB.Flushes
		l.CR3Writes += c.Stats.CR3Writes
		l.PageFaults += c.Stats.Faults
		l.Interrupts += c.Stats.Interrupts
		l.IPIs += c.LAPIC.IPIsReceived.Load()
		if i < len(l.Elapsed) {
			l.Elapsed[i] = uint64(c.Now())
			l.Idle[i] = c.Stats.IdleCycles
		}
	}
	vc := voStats(s)
	l.VOCalls, l.VOPTEWrites = vc.Calls, vc.PTEWrites
	if s.VMM != nil {
		l.Hypercalls = s.VMM.Stats.Hypercalls.Load()
		l.Multicalls = s.VMM.Stats.Multicalls.Load()
	}
	if s.Dom != nil {
		l.MMUUpdates = s.Dom.Stats.MMUUpdates.Load()
		l.FaultBounces = s.Dom.Stats.FaultBounces.Load()
	}
	if col := s.M.Telemetry(); col != nil {
		r := col.Registry
		l.HypercallCyc = r.Histogram("xen", "hypercall_cycles").Sum()
		l.FaultBounceCyc = r.Histogram("xen", "fault_bounce_cycles").Sum()
		// Only the split-driver systems (M-U) wire the classic rings.
		if s.Driver != nil {
			l.ClassicRequests = r.Counter("xen", "backend_requests_total", obs.L("dev", "blk")).Load()
			l.ClassicPackets = r.Counter("xen", "backend_packets_total", obs.L("dev", "net"), obs.L("dir", "rx")).Load() +
				r.Counter("xen", "backend_packets_total", obs.L("dev", "net"), obs.L("dir", "tx")).Load()
			l.ClassicEvents = r.Counter("xen", "events_sent_total").Load()
		}
	}
	return l
}

// sub returns the counter deltas a-b.
func (a layerCounts) sub(b layerCounts) layerCounts {
	d := layerCounts{
		TLBMisses: a.TLBMisses - b.TLBMisses, TLBFlushes: a.TLBFlushes - b.TLBFlushes,
		CR3Writes: a.CR3Writes - b.CR3Writes, PageFaults: a.PageFaults - b.PageFaults,
		Interrupts: a.Interrupts - b.Interrupts, IPIs: a.IPIs - b.IPIs,
		VOCalls: a.VOCalls - b.VOCalls, VOPTEWrites: a.VOPTEWrites - b.VOPTEWrites,
		Hypercalls: a.Hypercalls - b.Hypercalls, MMUUpdates: a.MMUUpdates - b.MMUUpdates,
		FaultBounces: a.FaultBounces - b.FaultBounces, Multicalls: a.Multicalls - b.Multicalls,
		HypercallCyc: a.HypercallCyc - b.HypercallCyc, FaultBounceCyc: a.FaultBounceCyc - b.FaultBounceCyc,
		ClassicRequests: a.ClassicRequests - b.ClassicRequests,
		ClassicPackets:  a.ClassicPackets - b.ClassicPackets,
		ClassicEvents:   a.ClassicEvents - b.ClassicEvents,
	}
	for i := range d.Elapsed {
		d.Elapsed[i] = a.Elapsed[i] - b.Elapsed[i]
		d.Idle[i] = a.Idle[i] - b.Idle[i]
	}
	return d
}

// simOnly clears the collector-derived fields, leaving what an
// untraced run also measures.
func (a layerCounts) simOnly() layerCounts {
	a.HypercallCyc, a.FaultBounceCyc = 0, 0
	a.ClassicRequests, a.ClassicPackets, a.ClassicEvents = 0, 0, 0
	return a
}
