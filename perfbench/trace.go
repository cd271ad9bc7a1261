package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/obs"
)

// Traced-run analysis: switch phase self times from the program's
// spans, host time per package from a CPU profile, and the per-layer
// metrics derived from a traced pass.

// phaseStats collects, per successful switch, the self time of each
// phase/* span and the part of the attach not covered by any phase.
type phaseStats struct {
	Self         map[string][]float64 // "attach.<phase>" -> cycles per switch
	Unattributed []float64            // attach cycles outside every phase
	Switches     int
}

// add folds the switches found in spans into ps.
func (ps *phaseStats) add(spans []obs.Span) {
	if ps.Self == nil {
		ps.Self = make(map[string][]float64)
	}
	children := make(map[uint64][]obs.Span)
	for _, s := range spans {
		if s.Parent != 0 && s.Kind() == obs.SpanDur {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, root := range spans {
		dir := strings.TrimPrefix(root.Name, "switch/")
		if (dir != "attach" && dir != "detach") || root.Arg != 0 || root.Kind() != obs.SpanDur {
			continue
		}
		ps.Switches++
		var covered uint64
		for _, ph := range children[root.ID] {
			name, ok := strings.CutPrefix(ph.Name, "phase/")
			if !ok {
				continue
			}
			covered += ph.Dur()
			self := ph.Dur()
			for _, c := range children[ph.ID] {
				self -= min(c.Dur(), self)
			}
			key := dir + "." + name
			ps.Self[key] = append(ps.Self[key], float64(self))
		}
		if dir == "attach" {
			ps.Unattributed = append(ps.Unattributed, float64(root.Dur()-min(covered, root.Dur())))
		}
	}
}

// hostPackages are the buckets CPU-profile self time is split into.
var hostPackages = []string{"hw", "xen", "vo", "guest", "core", "pgtable", "sync", "sched", "gc"}

// hostShares splits a CPU profile's time by the package of the
// innermost frame, with garbage collection and goroutine scheduling
// recognised anywhere on the stack. It reads the profile through
// `go tool pprof -traces`, which prints every sampled stack, innermost
// frame first, under its CPU time. It returns the percentage of all
// profiled time per bucket and the number of 10 ms samples.
func hostShares(profilePath string) (map[string]float64, int, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profilePath).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces %s: %w", profilePath, err)
	}
	counts := make(map[string]time.Duration)
	var total, value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			total += value
			if b := bucket(stack); b != "" {
				counts[b] += value
			}
		}
		stack = nil
	}
	inTraces := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		f := strings.Fields(line)
		if !inTraces || len(f) == 0 {
			continue // the header, or a blank line
		}
		if len(stack) == 0 { // "<time>   <innermost function>"
			if len(f) < 2 {
				return nil, 0, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			if value, err = time.ParseDuration(f[0]); err != nil {
				return nil, 0, fmt.Errorf("pprof -traces: %w", err)
			}
			f = f[1:]
		}
		stack = append(stack, f[0]) // drops an "(inline)" marker
	}
	flush()
	shares := make(map[string]float64)
	for _, b := range hostPackages {
		shares[b] = 0
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total) * 100
		}
	}
	return shares, int(total / (10 * time.Millisecond)), nil
}

// bucket classifies one sample's stack, innermost frame first.
func bucket(stack []string) string {
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.gcAssistAlloc"),
			strings.HasPrefix(f, "runtime.bgsweep"), strings.HasPrefix(f, "runtime.bgscavenge"),
			strings.HasPrefix(f, "runtime.gcStart"), strings.HasPrefix(f, "runtime.markroot"):
			return "gc"
		}
	}
	for _, f := range stack {
		switch f {
		case "runtime.Gosched", "runtime.goschedImpl", "runtime.schedule", "runtime.findRunnable",
			"runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready", "runtime.mstart1":
			return "sched"
		}
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, "sync."), strings.HasPrefix(leaf, "sync/atomic."),
		strings.HasPrefix(leaf, "internal/sync."), strings.HasPrefix(leaf, "runtime.lock"),
		strings.HasPrefix(leaf, "runtime.unlock"), strings.HasPrefix(leaf, "runtime/internal/atomic."),
		strings.HasPrefix(leaf, "internal/runtime/atomic."):
		return "sync"
	}
	for _, pkg := range []string{"hw", "xen", "vo", "guest", "core", "pgtable"} {
		if strings.HasPrefix(leaf, "repro/internal/"+pkg+".") {
			return pkg
		}
	}
	return ""
}

// layerMetrics fills every per-layer metric from a traced pass; plain
// is the untraced pass run alongside it (host timings of the switch).
func layerMetrics(rep *report, plain, r passResult) {
	for _, s := range perLayer {
		rep.Metrics.set(s.Name, 0, 0)
	}
	m := rep.Metrics
	var idle, elapsed [2]uint64
	addHW := func(sys string, l layerCounts, n int) {
		m.set("hw.tlb_misses."+sys, float64(l.TLBMisses), n)
		m.set("hw.tlb_flushes."+sys, float64(l.TLBFlushes), n)
		m.set("hw.cr3_writes."+sys, float64(l.CR3Writes), n)
		m.set("hw.page_faults."+sys, float64(l.PageFaults), n)
		m.set("hw.interrupts."+sys, float64(l.Interrupts), n)
		m.set("hw.ipis", m["hw.ipis"].Value+float64(l.IPIs), n)
		for i := range idle {
			idle[i] += l.Idle[i]
			elapsed[i] += l.Elapsed[i]
		}
		if sys == "M-N" || sys == "M-V" {
			m.set("vo.calls."+sys, float64(l.VOCalls), n)
			m.set("vo.pte_writes."+sys, float64(l.VOPTEWrites), n)
		}
		if sys != "N-L" {
			m.set("xen.hypercalls."+sys, float64(l.Hypercalls), n)
			m.set("xen.mmu_updates."+sys, float64(l.MMUUpdates), n)
			m.set("xen.fault_bounces."+sys, float64(l.FaultBounces), n)
			m.set("xen.multicalls."+sys, float64(l.Multicalls), n)
		}
		if sys == "M-V" || sys == "M-U" {
			m.set("xen.hypercall_cyc."+sys, float64(l.HypercallCyc), n)
			m.set("xen.fault_bounce_cyc."+sys, float64(l.FaultBounceCyc), n)
		}
		m.set("xen.classic.backend_requests", m["xen.classic.backend_requests"].Value+float64(l.ClassicRequests), n)
		m.set("xen.classic.backend_packets", m["xen.classic.backend_packets"].Value+float64(l.ClassicPackets), n)
		m.set("xen.classic.events", m["xen.classic.events"].Value+float64(l.ClassicEvents), n)
	}

	switch {
	case r.LM != nil:
		for _, run := range r.LM.Runs {
			addHW(run.Key, run.Layers, len(r.LM.Ops))
			for _, op := range opClasses {
				var us []float64
				for i, o := range r.LM.Ops {
					if o.Class == op {
						us = append(us, cycToUS(float64(run.OpCyc[i])))
					}
				}
				m.set("guest."+op.String()+"_us."+run.Key, median(us), len(us))
			}
		}
	case r.SW != nil:
		sw := r.SW
		addHW("M-N", sw.Layers, len(sw.AttachCyc))
		frames := make([]float64, len(sw.RecomputeFrames))
		for i, f := range sw.RecomputeFrames {
			frames[i] = float64(f)
		}
		m.set("xen.recompute.frames", median(frames), len(frames))
		m.set("xen.journal.replays", float64(sw.JournalReplays), len(frames))
		m.set("xen.journal.fallbacks", float64(sw.JournalFallbacks), len(frames))
		m.set("core.deferred", float64(sw.Deferred), len(sw.AttachCyc))
		m.set("core.starved", float64(sw.Starved), len(sw.AttachCyc))
		m.set("core.switch_host_us_p50", median(plain.SW.HostUS), len(plain.SW.HostUS))
		phaseMetrics(m, &sw.Phases)
	}
	for i := range idle {
		if elapsed[i] > 0 {
			m.set(fmt.Sprintf("hw.idle_pct.cpu%d", i), float64(idle[i])/float64(elapsed[i])*100, 1)
		}
	}
}

// phaseMetrics reports each switch phase's median self time.
func phaseMetrics(m Metrics, ps *phaseStats) {
	for _, dir := range []struct {
		name   string
		phases []string
	}{{"attach", attachPhases}, {"detach", detachPhases}} {
		for _, ph := range dir.phases {
			xs := ps.Self[dir.name+"."+ph]
			m.set("core."+dir.name+"."+ph+"_us", cycToUS(median(xs)), len(xs))
		}
	}
	m.set("core.attach.unattributed_us", cycToUS(median(ps.Unattributed)), len(ps.Unattributed))
}

// benchSpan is one span the benchmark recorded around a call into the
// program: an operation or a switch.
type benchSpan struct {
	Name   string    `json:"name"`
	System string    `json:"system,omitempty"`
	Cycles hw.Cycles `json:"cycles"`
}

func benchSpans(r passResult) []benchSpan {
	var out []benchSpan
	switch {
	case r.LM != nil:
		for _, run := range r.LM.Runs {
			for i, op := range r.LM.Ops {
				out = append(out, benchSpan{"guest/" + op.Class.String(), run.Key, run.OpCyc[i]})
			}
		}
	case r.SW != nil:
		for i := range r.SW.AttachCyc {
			out = append(out, benchSpan{"core/attach", "M-N", r.SW.AttachCyc[i]})
		}
		for i := range r.SW.DetachCyc {
			out = append(out, benchSpan{"core/detach", "M-N", r.SW.DetachCyc[i]})
		}
	}
	return out
}
