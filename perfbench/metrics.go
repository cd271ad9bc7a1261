package main

import (
	"sort"

	"repro/internal/hw"
)

// Clock tags a metric with the clock it is read from.
type Clock string

const (
	// Sim is simulated cycles at the machine's 3 GHz; deterministic on
	// one simulated CPU.
	Sim Clock = "sim"
	// Host is wall or CPU time of the host process.
	Host Clock = "host"
)

// MetricSpec describes one metric the benchmark prints.
type MetricSpec struct {
	Name  string
	Unit  string
	Clock Clock
	// Better is "lower" or "higher".
	Better string
}

// endToEnd lists the end-to-end metrics, in print order. Every run
// prints all of them: the host metrics describe the named workload, the
// sim metrics come from one pass of each workload at the run's seed.
var endToEnd = []MetricSpec{
	{"setup_s", "s", Host, "lower"},
	{"host_s", "s", Host, "lower"},
	{"host_cpu_s", "s", Host, "lower"},
	{"peak_rss_mb", "MB", Host, "lower"},
	{"native_tax_pct", "%", Sim, "lower"},
	{"virtual_tax_pct", "%", Sim, "lower"},
	{"domu_tax_pct", "%", Sim, "lower"},
	{"attach_us_p50", "us", Sim, "lower"},
	{"attach_us_p99", "us", Sim, "lower"},
	{"detach_us_p50", "us", Sim, "lower"},
	{"detach_us_p99", "us", Sim, "lower"},
}

// Switch phases that occur in each direction, in execution order.
var (
	attachPhases = []string{"state-reload", "frame-recompute", "segment-pl-flip",
		"interrupt-rebind", "shadow-translate", "vo-relocate"}
	detachPhases = []string{"io-quiesce", "shadow-return", "frame-release",
		"segment-pl-flip", "state-reload", "vo-relocate"}
)

// perLayer lists the per-layer metrics of the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []MetricSpec {
	var out []MetricSpec
	add := func(name, unit string, clock Clock) {
		out = append(out, MetricSpec{name, unit, clock, "lower"})
	}
	// Layers are reported per lmbench-up system; switch-smp runs on M-N.
	for _, key := range lmbenchSystems {
		sys := string(key)
		for _, n := range []string{"tlb_misses", "tlb_flushes", "cr3_writes", "page_faults", "interrupts"} {
			add("hw."+n+"."+sys, "count", Sim)
		}
	}
	add("hw.ipis", "count", Sim)
	add("hw.idle_pct.cpu0", "%", Sim)
	add("hw.idle_pct.cpu1", "%", Sim)
	for _, sys := range []string{"M-N", "M-V"} {
		add("vo.calls."+sys, "count", Sim)
		add("vo.pte_writes."+sys, "count", Sim)
	}
	for _, sys := range []string{"M-N", "M-V", "M-U"} {
		for _, n := range []string{"hypercalls", "mmu_updates", "fault_bounces", "multicalls"} {
			add("xen."+n+"."+sys, "count", Sim)
		}
		if sys != "M-N" {
			add("xen.hypercall_cyc."+sys, "cycles", Sim)
			add("xen.fault_bounce_cyc."+sys, "cycles", Sim)
		}
	}
	add("xen.classic.backend_requests", "count", Sim)
	add("xen.classic.backend_packets", "count", Sim)
	add("xen.classic.events", "count", Sim)
	add("xen.recompute.frames", "count", Sim)
	add("xen.journal.replays", "count", Sim)
	add("xen.journal.fallbacks", "count", Sim)
	for _, ph := range attachPhases {
		add("core.attach."+ph+"_us", "us", Sim)
	}
	add("core.attach.unattributed_us", "us", Sim)
	for _, ph := range detachPhases {
		add("core.detach."+ph+"_us", "us", Sim)
	}
	add("core.deferred", "count", Sim)
	add("core.starved", "count", Sim)
	add("core.switch_host_us_p50", "us", Host)
	for _, key := range lmbenchSystems {
		for _, op := range opClasses {
			add("guest."+op.String()+"_us."+string(key), "us", Sim)
		}
	}
	for _, pkg := range hostPackages {
		add("host."+pkg+"_pct", "%", Host)
	}
	add("bench.trace_overhead_pct", "%", Host)
	return out
}

// hz is the simulated machine's clock rate.
var hz = hw.DefaultConfig().Hz

func cycToUS(c float64) float64 { return c / float64(hz) * 1e6 }

// Metric is one measured value.
type Metric struct {
	Value   float64
	Samples int
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

func (m Metrics) set(name string, v float64, samples int) {
	m[name] = Metric{Value: v, Samples: samples}
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the median of xs (copied, xs is not reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
