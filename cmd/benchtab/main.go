// benchtab regenerates every table and figure of the paper's evaluation
// (§7): Table 1 and Table 2 (lmbench latencies across the six system
// configurations, UP and SMP), Figures 3 and 4 (relative application
// performance), the mode-switch timings of §7.4, and the §5.1.2
// frame-tracking ablation.
//
// Usage:
//
//	benchtab                 # everything
//	benchtab -exp table1     # one experiment: table1 table2 fig3 fig4
//	                         # switch switchscale ablation chaos ...
//	benchtab -exp switchscale -json
//	                         # regenerate the switch-latency trajectory
//	                         # into BENCH_switch.json; CI then runs
//	                         # git diff --exit-code on the file
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/hw"
	"repro/internal/mc"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment to run: table1, table2, fig3, fig4, switch, switchscale, ablation, paging, batching, emulation, addrspace, chaos, migrate, fork, fleet, io, divergence, mc, all")
	samples := flag.Int("samples", 10, "mode-switch samples")
	seed := flag.Int64("seed", 42, "chaos campaign seed")
	episodes := flag.Int("episodes", 16, "chaos campaign episodes")
	format := flag.String("format", "text", "output format for tables/figures: text or csv")
	metrics := flag.Bool("metrics", false,
		"collect telemetry and write per-configuration metric dumps (JSON)")
	metricsDir := flag.String("metricsdir", ".", "directory for -metrics dump files")
	jsonOut := flag.Bool("json", false,
		"write machine-readable results: BENCH_switch.json (switchscale), BENCH_<exp>.json (batching, migrate, fork, fleet, io, mc, divergence), BENCH_table1/2.json, BENCH_fig3/4.json")
	jsonDir := flag.String("jsondir", ".", "directory for -json result files")
	policyName := flag.String("policy", "recompute",
		"tracking policy for switch/chaos experiments: recompute, active, journal")
	migrateFaults := flag.Bool("migrate", false,
		"chaos experiment: add a standby node and the migration fault classes to the campaign")
	divOps := flag.Int("divops", 300, "divergence experiment: workload length in operations")
	flag.Parse()
	csv := *format == "csv"

	var policy core.TrackingPolicy
	switch *policyName {
	case "recompute":
		policy = core.TrackRecompute
	case "active":
		policy = core.TrackActive
	case "journal":
		policy = core.TrackJournal
	default:
		log.Fatalf("unknown policy %q", *policyName)
	}

	writeJSON := func(name string, v any) {
		if !*jsonOut {
			return
		}
		path := filepath.Join(*jsonDir, name)
		if err := bench.WriteJSONFile(path, v); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	run := func(name string) bool {
		return *exp == "all" || strings.EqualFold(*exp, name)
	}
	any := false

	// writeMetrics dumps col's registry as JSON to name under
	// -metricsdir.
	writeMetrics := func(name string, col *obs.Collector) {
		path := filepath.Join(*metricsDir, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := col.Registry.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	// collectorsFor returns per-configuration collectors (and a dump
	// function) when -metrics is on, else zero options.
	collectorsFor := func(expName string, ncpu int) (bench.Options, func()) {
		if !*metrics {
			return bench.Options{}, func() {}
		}
		cs := bench.NewCollectorSet(ncpu)
		return bench.Options{CollectorFor: cs.For}, func() {
			for _, key := range cs.Keys() {
				writeMetrics(fmt.Sprintf("metrics-%s-%s.json", expName, key), cs.For(key))
			}
			cs.WriteTraceHealth(os.Stdout)
		}
	}

	if run("table1") {
		any = true
		opt, dump := collectorsFor("table1", 1)
		t, err := bench.LmbenchTable(1, opt)
		if err != nil {
			log.Fatal(err)
		}
		if csv {
			bench.WriteTableCSV(os.Stdout, t)
		} else {
			bench.WriteTable(os.Stdout, t)
		}
		writeJSON("BENCH_table1.json", t)
		dump()
		fmt.Println()
	}
	if run("table2") {
		any = true
		opt, dump := collectorsFor("table2", 2)
		t, err := bench.LmbenchTable(2, opt)
		if err != nil {
			log.Fatal(err)
		}
		if csv {
			bench.WriteTableCSV(os.Stdout, t)
		} else {
			bench.WriteTable(os.Stdout, t)
		}
		writeJSON("BENCH_table2.json", t)
		dump()
		fmt.Println()
	}
	if run("fig3") {
		any = true
		f, err := bench.AppFigure(1, bench.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if csv {
			bench.WriteFigureCSV(os.Stdout, f)
		} else {
			bench.WriteFigure(os.Stdout, f)
		}
		writeJSON("BENCH_fig3.json", f)
		fmt.Println()
	}
	if run("fig4") {
		any = true
		f, err := bench.AppFigure(2, bench.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if csv {
			bench.WriteFigureCSV(os.Stdout, f)
		} else {
			bench.WriteFigure(os.Stdout, f)
		}
		writeJSON("BENCH_fig4.json", f)
		fmt.Println()
	}
	if run("switch") {
		any = true
		opt := bench.Options{}
		var col *obs.Collector
		if *metrics {
			col = obs.New(1)
			opt.Collector = col
		}
		r, err := bench.ModeSwitchBenchOpts(*samples, policy, opt)
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteSwitch(os.Stdout, r)
		if col != nil {
			fmt.Println()
			bench.WritePhaseBreakdown(os.Stdout, col, hw.DefaultHz)
			writeMetrics("metrics-switch-M-N.json", col)
			bench.WriteTraceHealth(os.Stdout, "M-N", col)
		}
		fmt.Println()
	}
	if run("switchscale") {
		any = true
		pts, err := bench.SwitchScale(bench.Options{})
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteSwitchScale(os.Stdout, pts)
		writeJSON("BENCH_switch.json",
			bench.SwitchBaseline{Schema: bench.SwitchBaselineSchema, Scale: pts})
		fmt.Println()
	}
	if run("paging") {
		any = true
		r, err := bench.PagingAblation()
		if err != nil {
			log.Fatal(err)
		}
		bench.WritePagingAblation(os.Stdout, r)
		fmt.Println()
	}
	if run("ablation") {
		any = true
		a, err := bench.TrackingAblation()
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteAblation(os.Stdout, a)
		fmt.Println()
	}
	if run("batching") {
		any = true
		r, err := bench.BatchingAblation()
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteBatchingAblation(os.Stdout, r)
		fmt.Println()
		pts, err := bench.BatchingSweep()
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteBatchingSweep(os.Stdout, pts)
		writeJSON("BENCH_batching.json",
			bench.BatchingBaseline{Schema: bench.BatchingSchema, Points: pts})
		fmt.Println()
	}
	if run("emulation") {
		any = true
		r, err := bench.EmulationAblation()
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteEmulationAblation(os.Stdout, r)
		fmt.Println()
	}
	if run("addrspace") {
		any = true
		r, err := bench.AddrSpaceAblation()
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteAddrSpaceAblation(os.Stdout, r)
		fmt.Println()
	}
	if run("fleet") {
		any = true
		pts, err := bench.FleetSweep(bench.Options{})
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteFleetSweep(os.Stdout, pts)
		writeJSON("BENCH_fleet.json",
			bench.FleetBaseline{Schema: bench.FleetBaselineSchema, Sweep: pts})
		fmt.Println()
	}
	if run("fork") {
		any = true
		pts, err := bench.ForkSweep(bench.Options{})
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteForkSweep(os.Stdout, pts)
		writeJSON("BENCH_fork.json",
			bench.ForkBaseline{Schema: bench.ForkBaselineSchema, Sweep: pts})
		fmt.Println()
	}
	if run("io") {
		any = true
		pts, sw, err := bench.IOSweep(bench.Options{Policy: policy})
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteIOSweep(os.Stdout, pts, sw)
		writeJSON("BENCH_io.json",
			bench.IOBaseline{Schema: bench.IOBaselineSchema, Sweep: pts, Switch: sw})
		fmt.Println()
	}
	if run("migrate") {
		any = true
		pts, err := bench.MigrateSweep(bench.Options{})
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteMigrateSweep(os.Stdout, pts)
		writeJSON("BENCH_migrate.json",
			bench.MigrateBaseline{Schema: bench.MigrateBaselineSchema, Sweep: pts})
		fmt.Println()
	}
	if run("chaos") {
		any = true
		opt := bench.Options{Policy: policy, MigrateFaults: *migrateFaults}
		var col *obs.Collector
		if *metrics {
			col = obs.New(1)
			opt.Collector = col
		}
		r, err := bench.ChaosCampaign(*seed, *episodes, opt)
		if err != nil {
			log.Fatal(err)
		}
		bench.WriteChaos(os.Stdout, r)
		if col != nil {
			writeMetrics("metrics-chaos.json", col)
			bench.WriteTraceHealth(os.Stdout, "chaos", col)
		}
		fmt.Println()
	}
	if run("mc") {
		any = true
		rows, err := mc.BenchSuite()
		if err != nil {
			log.Fatal(err)
		}
		mc.WriteBenchTable(os.Stdout, rows)
		writeJSON("BENCH_mc.json", mc.Baseline{Schema: mc.BaselineSchema, Rows: rows})
		fmt.Println()
	}
	if run("divergence") {
		any = true
		rep, err := divergence.Run(divergence.Config{Seed: *seed, Ops: *divOps})
		if err != nil {
			log.Fatal(err)
		}
		rep.WriteText(os.Stdout)
		writeJSON("BENCH_divergence.json", rep)
		if *jsonOut {
			mdPath := filepath.Join(*jsonDir, "divergence_report.md")
			mf, err := os.Create(mdPath)
			if err != nil {
				log.Fatal(err)
			}
			rep.WriteMarkdown(mf)
			mf.Close()
			fmt.Printf("wrote %s\n", mdPath)
		}
		// The budget is a constant, so this gate holds with or without
		// a committed report and survives any regeneration.
		if err := rep.CheckNativeTax(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !any {
		log.Fatalf("unknown experiment %q", *exp)
	}
}
