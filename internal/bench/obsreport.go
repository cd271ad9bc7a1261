package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Span-trace post-processing for the benchmark harness: aggregating the
// mode-switch phase decomposition out of a collector's span trace, and
// writing per-configuration metric dumps.

// PhaseStat aggregates one phase across all switches of one direction.
type PhaseStat struct {
	Name     string
	Count    int
	TotalCyc uint64
}

// PhaseBreakdown sums the direct child spans of every root span named
// rootName ("switch/attach" or "switch/detach") in the trace, plus the
// roots' own totals. Only successful switches (root Arg == 0) count.
// The returned phases are ordered by first appearance, matching the
// execution order inside the switch ISR.
func PhaseBreakdown(spans []obs.Span, rootName string) (phases []PhaseStat, rootTotal uint64, rootCount int) {
	roots := make(map[uint64]bool)
	for _, s := range spans {
		if s.Name == rootName && s.Arg == 0 && s.Kind() == obs.SpanDur {
			roots[s.ID] = true
			rootTotal += s.Dur()
			rootCount++
		}
	}
	idx := make(map[string]int)
	for _, s := range spans {
		if !roots[s.Parent] || s.Kind() != obs.SpanDur {
			continue
		}
		i, ok := idx[s.Name]
		if !ok {
			i = len(phases)
			idx[s.Name] = i
			phases = append(phases, PhaseStat{Name: s.Name})
		}
		phases[i].Count++
		phases[i].TotalCyc += s.Dur()
	}
	return phases, rootTotal, rootCount
}

// PhaseSum totals the phase cycles of a breakdown.
func PhaseSum(phases []PhaseStat) uint64 {
	var sum uint64
	for _, p := range phases {
		sum += p.TotalCyc
	}
	return sum
}

// WritePhaseBreakdown renders the attach and detach phase decomposition
// of a collector's trace, with each phase's share of the end-to-end
// switch time. hz converts cycles to microseconds.
func WritePhaseBreakdown(w io.Writer, col *obs.Collector, hz uint64) {
	spans := col.Tracer.Spans()
	us := func(cyc uint64) float64 { return float64(cyc) / float64(hz) * 1e6 }
	for _, root := range []string{"switch/attach", "switch/detach"} {
		phases, total, n := PhaseBreakdown(spans, root)
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d switches, %.2f us avg\n", root, n, us(total)/float64(n))
		for _, p := range phases {
			pct := 0.0
			if total > 0 {
				pct = float64(p.TotalCyc) / float64(total) * 100
			}
			fmt.Fprintf(w, "  %-24s %8.2f us avg  %5.1f%%\n",
				p.Name, us(p.TotalCyc)/float64(n), pct)
		}
		sum := PhaseSum(phases)
		fmt.Fprintf(w, "  %-24s %8.2f us avg  (phases cover %.2f%% of switch)\n",
			"total", us(sum)/float64(n), float64(sum)/float64(total)*100)
	}
}

// TraceHealth summarizes a collector's instrumentation losses: what the
// bounded buffers had to drop to stay allocation-light. Non-zero values
// do not invalidate a run, but they mean the trace and flight recorder
// are partial views and bigger rings (or shorter runs) are needed for a
// complete one.
type TraceHealth struct {
	SpansDropped  uint64 `json:"spans_dropped"`
	EventsDropped uint64 `json:"events_dropped"`
}

// CollectTraceHealth reads the drop counters off one collector.
func CollectTraceHealth(col *obs.Collector) TraceHealth {
	th := TraceHealth{}
	if col == nil {
		return th
	}
	if col.Tracer != nil {
		th.SpansDropped = col.Tracer.Dropped()
	}
	if col.Events != nil {
		th.EventsDropped = col.Events.Dropped()
	}
	return th
}

// WriteTraceHealth renders one collector's drop summary.
func WriteTraceHealth(w io.Writer, name string, col *obs.Collector) {
	th := CollectTraceHealth(col)
	fmt.Fprintf(w, "trace health %s: %d spans dropped, %d events dropped\n",
		name, th.SpansDropped, th.EventsDropped)
}

// WriteTraceHealthSet renders the drop summary of every configuration
// in a collector set.
func (cs *CollectorSet) WriteTraceHealth(w io.Writer) {
	keys := cs.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		WriteTraceHealth(w, string(key), cs.cols[key])
	}
}

// MetricDumpSet holds one JSON metric dump per configuration.
type MetricDumpSet map[SystemKey][]obs.MetricDump

// CollectorSet builds one collector per configuration for multi-system
// benchmarks and remembers them for dumping afterwards.
type CollectorSet struct {
	ncpu int
	cols map[SystemKey]*obs.Collector
	keys []SystemKey
}

// NewCollectorSet builds an empty set for machines with ncpu CPUs.
func NewCollectorSet(ncpu int) *CollectorSet {
	if ncpu <= 0 {
		ncpu = 1
	}
	return &CollectorSet{ncpu: ncpu, cols: make(map[SystemKey]*obs.Collector)}
}

// For returns (creating on first use) the collector for one
// configuration. Options.CollectorFor can point straight at it.
func (cs *CollectorSet) For(key SystemKey) *obs.Collector {
	if col, ok := cs.cols[key]; ok {
		return col
	}
	col := obs.New(cs.ncpu)
	cs.cols[key] = col
	cs.keys = append(cs.keys, key)
	return col
}

// Keys returns the configurations seen, in first-use order.
func (cs *CollectorSet) Keys() []SystemKey {
	return append([]SystemKey(nil), cs.keys...)
}

// Dumps snapshots every configuration's registry.
func (cs *CollectorSet) Dumps() MetricDumpSet {
	out := make(MetricDumpSet, len(cs.cols))
	for key, col := range cs.cols {
		out[key] = col.Registry.Dump()
	}
	return out
}

// WriteProm writes every configuration's registry in Prometheus text
// format, separated by a comment header per configuration.
func (cs *CollectorSet) WriteProm(w io.Writer) {
	keys := cs.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		fmt.Fprintf(w, "# configuration: %s\n", key)
		cs.cols[key].Registry.WriteProm(w)
	}
}
