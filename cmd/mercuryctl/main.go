// mercuryctl drives a simulated Mercury system through its lifecycle
// from the command line: boot, run a workload, switch modes, host a
// guest, heal, update — printing what the engine does at each step.
//
// Usage:
//
//	mercuryctl -demo lifecycle   # boot, attach, host, detach
//	mercuryctl -demo stress      # repeated switches under process load
//	mercuryctl -demo scenarios   # healing + live update episodes
//	mercuryctl stats             # run a workload, print the metrics
//	                             # registry (Prometheus text format)
//	mercuryctl trace -o t.json   # record spans across a switch cycle,
//	                             # export Chrome trace_event JSON
//	mercuryctl chaos -seed 42    # seeded fault-injection campaign:
//	                             # episode table + dependability report
//	mercuryctl fleet -nodes 50   # rolling-maintenance wave over a fleet
//	mercuryctl fleet -action top # periodic per-node fleet snapshot
//	mercuryctl events -kind admission-grant
//	                             # flight-recorder dump, filterable by
//	                             # kind/node, text or -json
//	mercuryctl fork -clones 1000 # fork a fleet of CoW clones from one
//	                             # snapshot, report cache dedup + cost
//	mercuryctl io -queues 4      # split-device I/O datapath demo: M-N vs
//	                             # M-V multi-queue rings, then a mode
//	                             # switch under load with tail latency
//	mercuryctl mc                # model-check the mode-switch protocol:
//	                             # exhaustive interleaving exploration
//	mercuryctl mc -seed-bug toctou -expect commit-with-refcount-held -trace
//	                             # rediscover a seeded regression and
//	                             # replay its minimal counterexample
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/obs"
)

func main() {
	demo := flag.String("demo", "lifecycle", "demo to run: lifecycle, stress, scenarios, stats, trace")
	policy := flag.String("tracking", "recompute", "frame tracking: recompute or active")
	ncpu := flag.Int("cpus", 1, "number of CPUs")
	flag.Parse()

	// Subcommand flags come after the subcommand word
	// (mercuryctl trace -o trace.json), so they get their own set.
	sub := flag.Arg(0)
	subFlags := flag.NewFlagSet(sub, flag.ExitOnError)
	out := subFlags.String("o", "trace.json", "output file for the trace subcommand")
	seed := subFlags.Int64("seed", 42, "chaos campaign seed")
	episodes := subFlags.Int("episodes", 16, "chaos campaign episodes")
	migrateFaults := subFlags.Bool("migrate", false,
		"chaos: add a standby node and the migration fault classes")
	fleetNodes := subFlags.Int("nodes", 4, "fleet: number of Mercury nodes")
	fleetBatch := subFlags.Int("batch", 1, "fleet: nodes maintained per batch")
	fleetArrival := subFlags.Int("arrival", 0,
		"fleet: admission requests submitted per tick (0 = whole batch at once)")
	fleetDeadline := subFlags.Int("deadline", 0,
		"fleet: per-request admission deadline in ticks (0 = none)")
	fleetMaxVirtual := subFlags.Int("maxvirtual", 0,
		"fleet: virtual-mode concurrency bound (0 = derive from the capacity model)")
	fleetAction := subFlags.String("action", "checkpoint",
		"fleet: maintenance action (checkpoint or migrate), or top for the periodic fleet view")
	fleetLoad := subFlags.Bool("load", false,
		"fleet: run a dbench load on each node at boot")
	fleetInterval := subFlags.Int("interval", 8,
		"fleet -action top: ticks between snapshots")
	jsonOut := subFlags.Bool("json", false,
		"fleet -action top / events / mc: emit JSON instead of text")
	eventsKind := subFlags.String("kind", "",
		"events: only show this event kind (e.g. mode-switch, admission-grant)")
	eventsNode := subFlags.Int("node", -2,
		"events: only show this node's events (-1 = fleet-level, -2 = all)")
	eventsLast := subFlags.Int("last", 0,
		"events: only show the newest N matching events (0 = all)")
	mcCPUs := subFlags.Int("cpus", 2, "mc: CPUs in the reduced machine (CPU 0 is the CP)")
	mcWorkers := subFlags.Int("workers", 2, "mc: concurrent VO operations")
	mcOps := subFlags.Int("ops", 2, "mc: enter/write/exit rounds per worker")
	mcSwitches := subFlags.Int("switches", 3, "mc: mode-switch requests to raise")
	mcDeferrals := subFlags.Int("deferrals", 2, "mc: retry budget (MaxDeferrals)")
	mcDepth := subFlags.Int("depth", 0, "mc: exploration depth bound (0 = default)")
	mcBug := subFlags.String("seed-bug", "none",
		"mc: seeded regression to plant (none, toctou, rendezvous)")
	mcNoJournal := subFlags.Bool("nojournal", false, "mc: disable the dirty-journal model")
	mcDPOR := subFlags.Bool("dpor", false, "mc: enable sleep-set partial-order pruning")
	mcTrace := subFlags.Bool("trace", false,
		"mc: replay the counterexample through the flight recorder, step by step")
	mcExpect := subFlags.String("expect", "none",
		"mc: expected verdict for the exit status (none or a violation name)")
	forkClones := subFlags.Int("clones", 64, "fork: domains to fork from one image")
	forkPages := subFlags.Int("pages", 128, "fork: live data pages in the template")
	forkDirty := subFlags.Int("dirty", 4, "fork: frames each clone dirties")
	ioQueues := subFlags.Int("queues", 2, "io: multi-queue ring count")
	ioDepth := subFlags.Int("iodepth", 64, "io: ring depth per queue, slots")
	ioRequests := subFlags.Int("requests", 2000, "io: open-loop requests to issue")
	ioArrival := subFlags.Int("ioarrival", 6000, "io: mean inter-arrival gap, cycles")
	ioWrites := subFlags.Int("writes", 50, "io: write percentage of the request mix")
	ioSeed := subFlags.Int64("ioseed", 42, "io: arrival schedule and mix seed")
	ioNoSwitch := subFlags.Bool("noswitch", false, "io: skip the mid-run V->N mode switch")
	if sub != "" {
		if err := subFlags.Parse(flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
	}

	pol := core.TrackRecompute
	if *policy == "active" {
		pol = core.TrackActive
	}

	if sub == "chaos" {
		// The campaign builds its own system: a small deferral budget
		// keeps starved-switch episodes to a few simulated ticks.
		chaosCmd(pol, *ncpu, *seed, *episodes, *migrateFaults)
		return
	}
	if sub == "fleet" {
		fleetCmd(fleetOpts{
			nodes:      *fleetNodes,
			batch:      *fleetBatch,
			arrival:    *fleetArrival,
			deadline:   *fleetDeadline,
			maxVirtual: *fleetMaxVirtual,
			action:     *fleetAction,
			load:       *fleetLoad,
			policy:     pol,
			interval:   *fleetInterval,
			jsonOut:    *jsonOut,
		})
		return
	}
	if sub == "fork" {
		forkCmd(forkOpts{
			clones: *forkClones,
			pages:  *forkPages,
			dirty:  *forkDirty,
		})
		return
	}
	if sub == "io" {
		ioCmd(ioOpts{
			queues:   *ioQueues,
			depth:    *ioDepth,
			requests: *ioRequests,
			arrival:  hw.Cycles(*ioArrival),
			writes:   *ioWrites,
			seed:     *ioSeed,
			noswitch: *ioNoSwitch,
		})
		return
	}
	if sub == "mc" {
		mcCmd(mcOpts{
			cpus:      *mcCPUs,
			workers:   *mcWorkers,
			ops:       *mcOps,
			switches:  *mcSwitches,
			deferrals: *mcDeferrals,
			depth:     *mcDepth,
			bug:       *mcBug,
			noJournal: *mcNoJournal,
			dpor:      *mcDPOR,
			trace:     *mcTrace,
			jsonOut:   *jsonOut,
			expect:    *mcExpect,
		})
		return
	}
	if sub == "events" {
		eventsCmd(eventsOpts{
			nodes:    *fleetNodes,
			batch:    *fleetBatch,
			deadline: *fleetDeadline,
			action:   *fleetAction,
			policy:   pol,
			kind:     *eventsKind,
			node:     *eventsNode,
			last:     *eventsLast,
			jsonOut:  *jsonOut,
		})
		return
	}
	var col *obs.Collector
	if sub != "" || *demo == "trace" {
		// The collector must exist before boot so boot-time
		// instrumentation (the vo objects) registers into it.
		col = obs.New(*ncpu)
	}
	cfg := hw.DefaultConfig()
	cfg.NumCPUs = *ncpu
	machine := hw.NewMachine(cfg)
	if col != nil {
		machine.SetTelemetry(col)
	}
	mc, err := core.New(core.Config{Machine: machine, Policy: pol})
	if err != nil {
		log.Fatal(err)
	}

	if sub != "" {
		switch sub {
		case "stats":
			statsCmd(mc, col)
		case "trace":
			traceCmd(mc, col, *out)
		default:
			log.Fatalf("unknown subcommand %q (want stats, trace, chaos, fleet, events, fork, io or mc)", sub)
		}
		return
	}

	fmt.Printf("mercury: %s, tracking=%s, mode=%v\n", machine, *policy, mc.Mode())
	switch *demo {
	case "lifecycle":
		lifecycle(mc)
	case "stress":
		stress(mc)
	case "scenarios":
		scenarios(mc)
	case "stats":
		stats(mc)
	case "trace":
		trace(os.Stdout, mc, col)
	default:
		log.Fatalf("unknown demo %q", *demo)
	}
}

// statsCmd runs the mixed workload with telemetry installed and prints
// the whole metrics registry in the Prometheus text format.
func statsCmd(mc *core.Mercury, col *obs.Collector) {
	runMixedWorkload(mc)
	col.Registry.WriteProm(os.Stdout)
}

// switchCycle records the span trace of one attach/host/detach cycle
// run by a process, so the attach has a live address space to pin:
// switch to partial-virtual mode, create and destroy a guest, switch
// back. Spans come back in start order, parents before children.
func switchCycle(mc *core.Mercury, col *obs.Collector) []obs.Span {
	boot := mc.M.BootCPU()
	mc.K.Spawn(boot, "cycle", guest.DefaultImage("cycle"), func(p *guest.Proc) {
		c := p.CPU()
		must(mc.SwitchSync(c, core.ModePartialVirtual))
		domU, err := mc.VMM.HypDomctlCreateFromFrames(c, mc.Dom, "guest", 256)
		must(err)
		must(mc.VMM.HypDomctlDestroy(c, mc.Dom, domU.ID))
		must(mc.SwitchSync(c, core.ModeNative))
	})
	mc.K.Run(boot)
	spans := col.Tracer.Spans()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	return spans
}

// traceCmd writes the span trace of a switch cycle as a Chrome
// trace_event file (load it in chrome://tracing or Perfetto).
func traceCmd(mc *core.Mercury, col *obs.Collector, out string) {
	spans := switchCycle(mc, col)
	f, err := os.Create(out)
	must(err)
	must(obs.WriteChromeTrace(f, mc.M.Hz, spans))
	must(f.Close())
	fmt.Printf("wrote %s: %d spans (%d over budget)\n",
		out, len(spans), col.Tracer.Dropped())
}

// chaosCmd runs the seeded fault-injection campaign and prints the
// episode table plus the dependability summary. Same seed, same
// machine: same episodes.
func chaosCmd(pol core.TrackingPolicy, ncpu int, seed int64, episodes int, migrateFaults bool) {
	col := obs.New(ncpu)
	cfg := hw.DefaultConfig()
	cfg.NumCPUs = ncpu
	machine := hw.NewMachine(cfg)
	machine.SetTelemetry(col)
	mc, err := core.New(core.Config{Machine: machine, Policy: pol, MaxDeferrals: 8})
	must(err)

	ccfg := chaos.DefaultConfig(seed)
	if episodes > 0 {
		ccfg.Episodes = episodes
	}
	if migrateFaults {
		sb, err := chaos.NewStandby(machine)
		must(err)
		ccfg.Standby = sb
	}
	rep, err := chaos.Run(mc, ccfg)
	must(err)
	fmt.Print(chaos.FormatEpisodes(rep))
	fmt.Println(rep.Summary())
	fmt.Printf("%d fault classes; switch stats: attaches=%d detaches=%d deferred=%d starved=%d failed=%d\n",
		rep.FaultClasses(), mc.Stats.Attaches.Load(), mc.Stats.Detaches.Load(),
		mc.Stats.Deferred.Load(), mc.Stats.StarvedSwitches.Load(),
		mc.Stats.FailedSwitches.Load())
}

// runMixedWorkload exercises file I/O, memory mapping, a mode-switch
// round trip and process lifecycle — enough to touch every instrumented
// subsystem.
func runMixedWorkload(mc *core.Mercury) {
	k := mc.K
	boot := mc.M.BootCPU()
	k.Spawn(boot, "mix", guest.DefaultImage("mix"), func(p *guest.Proc) {
		fd, _ := p.Creat("/data")
		p.Write(fd, 256<<10)
		p.Close(fd)
		base := p.Mmap(64, guest.ProtRead|guest.ProtWrite, false)
		p.Touch(base, 64, true)
		must(mc.SwitchSync(p.CPU(), core.ModePartialVirtual))
		p.Touch(base, 64, false)
		must(mc.SwitchSync(p.CPU(), core.ModeNative))
		p.Fork("child", func(cp *guest.Proc) { cp.Exit(0) })
		p.Wait()
	})
	k.Run(boot)
}

func lifecycle(mc *core.Mercury) {
	c := mc.M.BootCPU()
	us := func(n uint64) float64 { return mc.M.Micros(n) }

	must(mc.SwitchSync(c, core.ModePartialVirtual))
	fmt.Printf("attach:  %7.1f us  (mode=%v)\n", us(mc.Stats.LastAttachCyc.Load()), mc.Mode())

	domU, err := mc.VMM.HypDomctlCreateFromFrames(c, mc.Dom, "guest", 1024)
	must(err)
	fmt.Printf("hosting: dom%d (%s) with %d hosted domains total\n",
		domU.ID, domU.Name, len(mc.HostedDomains()))

	must(mc.VMM.HypDomctlDestroy(c, mc.Dom, domU.ID))
	must(mc.SwitchSync(c, core.ModeNative))
	fmt.Printf("detach:  %7.1f us  (mode=%v)\n", us(mc.Stats.LastDetachCyc.Load()), mc.Mode())
}

func stress(mc *core.Mercury) {
	k := mc.K
	boot := mc.M.BootCPU()
	k.Spawn(boot, "stress", guest.DefaultImage("stress"), func(p *guest.Proc) {
		base := p.Mmap(128, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, 128, true)
		for i := 0; i < 20; i++ {
			must(mc.SwitchSync(p.CPU(), core.ModePartialVirtual))
			p.Touch(base, 128, false)
			must(mc.SwitchSync(p.CPU(), core.ModeNative))
			p.Touch(base, 128, true)
		}
	})
	k.Run(boot)
	fmt.Printf("20 round trips: attaches=%d detaches=%d deferred=%d fixed-frames=%d\n",
		mc.Stats.Attaches.Load(), mc.Stats.Detaches.Load(),
		mc.Stats.Deferred.Load(), mc.Stats.FixedFrames.Load())
	fmt.Printf("last attach %.1f us, last detach %.1f us\n",
		mc.M.Micros(mc.Stats.LastAttachCyc.Load()),
		mc.M.Micros(mc.Stats.LastDetachCyc.Load()))
}

func scenarios(mc *core.Mercury) {
	c := mc.M.BootCPU()

	mc.K.InjectRunqueueCorruption()
	rep, err := mc.SelfHeal(c, []core.Sensor{core.RunqueueSensor()}, core.RunqueueRepair())
	must(err)
	fmt.Printf("healing: sensor=%s healed=%v window=%.1f us\n",
		rep.Sensor, rep.Healed, rep.AttachedForUS)

	upd, err := mc.LiveUpdate(c, core.KernelPatch{
		Name:  "noop-refresh",
		Apply: func(k *guest.Kernel) error { return nil },
	})
	must(err)
	fmt.Printf("update:  patch=%s window=%.1f us native-before-and-after=%v\n",
		upd.Patch, upd.AttachedForUS, upd.WasNative && mc.Mode() == core.ModeNative)
}

func stats(mc *core.Mercury) {
	// Run a mixed workload, then dump every subsystem's counters.
	runMixedWorkload(mc)
	k := mc.K
	fmt.Printf("kernel: %d forks, %d ctx switches, %d syscalls, %d faults\n",
		k.Stats.Forks.Load(), k.Stats.CtxSwitches.Load(),
		k.Stats.Syscalls.Load(), k.Stats.PageFaults.Load())
	fmt.Printf("vmm: %d hypercalls, dom mmu updates %d\n",
		mc.VMM.Stats.Hypercalls.Load(), mc.Dom.Stats.MMUUpdates.Load())
	fmt.Printf("mercury: attaches=%d detaches=%d last attach %.1f us\n",
		mc.Stats.Attaches.Load(), mc.Stats.Detaches.Load(),
		mc.M.Micros(mc.Stats.LastAttachCyc.Load()))
}

// trace prints every hypervisor decision across one switch cycle, in
// start order: the span view of a mode switch.
func trace(w io.Writer, mc *core.Mercury, col *obs.Collector) {
	spans := switchCycle(mc, col)
	fmt.Fprintf(w, "%d events:\n", len(spans))
	show := spans
	if len(show) > 24 {
		show = show[:24]
	}
	for _, s := range show {
		fmt.Fprintf(w, "  [%12d] cpu%d %-28s dur=%-8d arg=%d\n",
			s.Start, s.CPU, s.Name, s.Dur(), s.Arg)
	}
	if len(spans) > len(show) {
		fmt.Fprintf(w, "  ... %d more\n", len(spans)-len(show))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
