// Command perfbench is the repository's benchmark: two workloads
// (lmbench-up, switch-smp), each driven through the layers' public
// functions, with a correctness gate and per-layer metrics from a
// separate traced run. See README.md.
//
//	perfbench --workload switch-smp --seed 7 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/obs"
)

// workloadNames lists the workloads in the order a run executes them.
var workloadNames = []string{"lmbench-up", "switch-smp"}

// setupReps is how many times the set-up is repeated; setup_s is the
// median.
const setupReps = 401

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
}

// outDir receives the traced run's profile, registries and spans.
var outDir = filepath.Join(".bench_build", "perfbench")

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.Workload, "workload", "", "lmbench-up | switch-smp")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "time budget for repeating the named workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.Trace = *trace == 1
	known := false
	for _, w := range workloadNames {
		known = known || w == cfg.Workload
	}
	if !known {
		return cfg, fmt.Errorf("unknown --workload %q (want one of %v)", cfg.Workload, workloadNames)
	}
	return cfg, nil
}

// inputs are every workload's generated inputs for one seed.
type inputs struct {
	Ops      []Op
	Episodes []episode
}

func genInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	return inputs{
		Ops:      genOpMix(rng.Int63()),
		Episodes: genEpisodes(rng.Int63(), roundTrips),
	}
}

// built holds the systems one pass of each workload runs on.
type built struct {
	Lmbench []*bench.System
	Switch  *bench.System
}

// buildAll is the benchmark's set-up: every system the workloads run
// on.
func buildAll() (built, error) {
	var b built
	var err error
	if b.Lmbench, err = buildLmbench(nil); err != nil {
		return b, err
	}
	b.Switch, err = buildSwitch(nil)
	return b, err
}

// passResult is one workload pass; exactly one field is set.
type passResult struct {
	LM *lmbenchResult
	SW *switchResult
}

// runPass runs one pass of workload w on b.
func runPass(w string, b built, in inputs) passResult {
	if w == "lmbench-up" {
		r := runLmbench(b.Lmbench, in.Ops)
		return passResult{LM: &r}
	}
	r := runSwitch(b.Switch, in.Episodes)
	return passResult{SW: &r}
}

// buildFor builds what workload w needs.
func buildFor(w string, col func(ncpu int) *obs.Collector) (built, error) {
	switch w {
	case "lmbench-up":
		var lmCol func() *obs.Collector
		if col != nil {
			lmCol = func() *obs.Collector { return col(1) }
		}
		s, err := buildLmbench(lmCol)
		return built{Lmbench: s}, err
	case "switch-smp":
		var c *obs.Collector
		if col != nil {
			c = col(2)
		}
		s, err := buildSwitch(c)
		return built{Switch: s}, err
	}
	return built{}, nil
}

// simSignature renders the simulated-clock results a pass must
// reproduce exactly: everything for the uniprocessor workloads, only
// logical counts for switch-smp (SMP runs are not cycle-deterministic).
func simSignature(r passResult) string {
	if r.SW != nil {
		return fmt.Sprintf("attaches=%d detaches=%d failed=%d",
			len(r.SW.AttachCyc), len(r.SW.DetachCyc), r.SW.Failed)
	}
	var b bytes.Buffer
	for _, run := range r.LM.Runs {
		fmt.Fprintf(&b, "%s %v %d %+v %+v %d|", run.Key, run.OpCyc, run.Total,
			run.Counts, run.Layers.simOnly(), run.Bad)
	}
	return b.String()
}

// hostSample is the host cost of one timed pass.
type hostSample struct{ Wall, CPU float64 }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// threadCPUSeconds is the CPU time the calling OS thread has used
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}

// timeSetup builds every system setupReps times and returns the CPU
// time of each build and the last build. A build runs on one goroutine,
// locked to its thread, so the thread's CPU clock covers all of it and
// none of the time the host gives other processes; each build starts
// after a full collection, so it pays for no earlier garbage.
func timeSetup() ([]float64, built, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var secs []float64
	var b built
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		c0 := threadCPUSeconds()
		var err error
		if b, err = buildAll(); err != nil {
			return nil, b, err
		}
		secs = append(secs, threadCPUSeconds()-c0)
	}
	return secs, b, nil
}

// timed runs one pass and measures its host cost.
func timed(w string, b built, in inputs) (passResult, hostSample) {
	t0, c0 := time.Now(), cpuSeconds()
	r := runPass(w, b, in)
	return r, hostSample{time.Since(t0).Seconds(), cpuSeconds() - c0}
}

// report is what a run prints.
type report struct {
	Metrics   Metrics
	Attempted int
	Failed    int
	Notes     []string // failure reasons, printed before the result
}

func (r *report) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// deadline bounds a whole run: a pass that hangs ends the process with
// an error instead of running past the caller's limit.
const deadline = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", cfg.Workload, deadline)
		os.Exit(1)
	})
	defer watchdog.Stop()
	in := genInputs(cfg.Seed)
	var rep *report
	var specs []MetricSpec
	if cfg.Trace {
		rep, err = tracedRun(cfg, in)
		specs = perLayer
	} else {
		rep, err = untracedRun(cfg, in)
		specs = endToEnd
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printReport(stdout, cfg, rep, specs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// untracedRun measures the end-to-end metrics.
func untracedRun(cfg config, in inputs) (*report, error) {
	rep := &report{Metrics: Metrics{}}

	// Set-up, repeated; the last build is used by the first passes.
	setup, b, err := timeSetup()
	if err != nil {
		return nil, err
	}
	rep.Metrics.set("setup_s", median(setup), len(setup))

	// The named workload, repeated for the time budget. Every repeat
	// must reproduce the first one's simulated results.
	passes := make(map[string]passResult)
	var hosts []hostSample
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.Seconds; i++ {
		wb := b
		if i > 0 {
			var err error
			if wb, err = buildFor(cfg.Workload, nil); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		r, h := timed(cfg.Workload, wb, in)
		hosts = append(hosts, h)
		if i == 0 {
			passes[cfg.Workload] = r
		} else if simSignature(r) != simSignature(passes[cfg.Workload]) {
			rep.fail(1, "%s: repeat %d differs from the first pass on the simulated clock", cfg.Workload, i)
		}
	}
	var walls, cpus []float64
	for _, h := range hosts {
		walls = append(walls, h.Wall)
		cpus = append(cpus, h.CPU)
	}
	rep.Metrics.set("host_s", median(walls), len(walls))
	rep.Metrics.set("host_cpu_s", median(cpus), len(cpus))
	rep.Metrics.set("peak_rss_mb", peakRSSMB(), 1)

	// One pass of each other workload, for its simulated-clock metrics.
	for _, w := range workloadNames {
		if w == cfg.Workload {
			continue
		}
		passes[w] = runPass(w, b, in)
	}
	simMetrics(rep, passes)
	return rep, nil
}

// simMetrics derives the simulated-clock end-to-end metrics and runs
// the correctness gate over every pass.
func simMetrics(rep *report, passes map[string]passResult) {
	lm := passes["lmbench-up"].LM
	gateLmbench(rep, lm)
	base := lm.Runs[0].Total
	n := len(lm.Ops)
	rep.Metrics.set("native_tax_pct", taxPct(lm.Runs[1].Total, base), n)
	rep.Metrics.set("virtual_tax_pct", taxPct(lm.Runs[2].Total, base), n)
	rep.Metrics.set("domu_tax_pct", taxPct(lm.Runs[3].Total, base), n)

	sw := passes["switch-smp"].SW
	gateSwitch(rep, sw)
	att, det := cycUS(sw.AttachCyc), cycUS(sw.DetachCyc)
	rep.Metrics.set("attach_us_p50", quantile(att, 0.50), len(att))
	rep.Metrics.set("attach_us_p99", quantile(att, 0.99), len(att))
	rep.Metrics.set("detach_us_p50", quantile(det, 0.50), len(det))
	rep.Metrics.set("detach_us_p99", quantile(det, 0.99), len(det))
}

func cycUS[T ~uint64](cs []T) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = cycToUS(float64(c))
	}
	return out
}

// printReport prints every metric of specs with its unit, clock and
// sample count, then the one-line JSON result.
func printReport(w io.Writer, cfg config, rep *report, specs []MetricSpec) error {
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "FAIL:", n)
	}
	mode := "untraced"
	if cfg.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s run: workload=%s seed=%d\n", mode, cfg.Workload, cfg.Seed)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]jsonMetric, len(specs))
	for _, s := range specs {
		m, ok := rep.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-7s [%s, n=%d]\n", s.Name, m.Value, s.Unit, s.Clock, m.Samples)
		out[s.Name] = jsonMetric{m.Value, s.Unit}
	}
	if !cfg.Trace {
		fmt.Fprintf(w, "  paper: native tax 2-3%% (measured %.3f%%), attach 220 us / detach 60 us (measured p50 %.1f / %.1f us)\n",
			rep.Metrics["native_tax_pct"].Value, rep.Metrics["attach_us_p50"].Value,
			rep.Metrics["detach_us_p50"].Value)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// tracedRun measures the per-layer metrics: untraced and traced passes
// of the named workload alternate for the time budget; the first traced
// pass, under an obs.Collector and a CPU profile, gives the layers.
func tracedRun(cfg config, in inputs) (*report, error) {
	rep := &report{Metrics: Metrics{}}
	var plain, traced []float64
	var first, firstTraced passResult
	var profile bytes.Buffer
	var cols []*obs.Collector
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.Seconds; i++ {
		b, err := buildFor(cfg.Workload, nil)
		if err != nil {
			return nil, err
		}
		r, h := timed(cfg.Workload, b, in)
		plain = append(plain, h.Wall)
		if i == 0 {
			first = r
		}

		newCol := func(ncpu int) *obs.Collector {
			c := obs.New(ncpu)
			if i == 0 {
				cols = append(cols, c)
			}
			return c
		}
		if b, err = buildFor(cfg.Workload, newCol); err != nil {
			return nil, err
		}
		if i == 0 {
			if err := pprof.StartCPUProfile(&profile); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		rt, ht := timed(cfg.Workload, b, in)
		if i == 0 {
			pprof.StopCPUProfile()
			firstTraced = rt
		}
		traced = append(traced, ht.Wall)
		if simSignature(rt) != simSignature(r) {
			rep.fail(1, "%s: traced pass %d differs from the untraced pass on the simulated clock", cfg.Workload, i)
		}
	}
	layerMetrics(rep, first, firstTraced)
	gatePass(rep, firstTraced)
	profilePath, err := writeTrace(cfg, profile.Bytes(), firstTraced, cols)
	if err != nil {
		return nil, err
	}
	shares, samples, err := hostShares(profilePath)
	if err != nil {
		return nil, err
	}
	for _, pkg := range hostPackages {
		rep.Metrics.set("host."+pkg+"_pct", shares[pkg], samples)
	}
	mp, mt := median(plain), median(traced)
	rep.Metrics.set("bench.trace_overhead_pct", (mt-mp)/mp*100, len(plain))
	return rep, nil
}

// gatePass runs the correctness gate of whichever workload r holds.
func gatePass(rep *report, r passResult) {
	if r.LM != nil {
		gateLmbench(rep, r.LM)
	} else {
		gateSwitch(rep, r.SW)
	}
}

// writeTrace writes the traced pass's CPU profile, the collectors'
// registries and the benchmark's own spans under outDir. It returns the
// profile's path.
func writeTrace(cfg config, profile []byte, r passResult, cols []*obs.Collector) (string, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", cfg.Workload, cfg.Seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	profilePath := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(profilePath, profile, 0o644); err != nil {
		return "", err
	}
	var regs [][]obs.MetricDump
	for _, c := range cols {
		regs = append(regs, c.Registry.Dump())
	}
	spans := benchSpans(r)
	data, err := json.MarshalIndent(struct {
		Registries [][]obs.MetricDump `json:"registries"`
		Spans      []benchSpan        `json:"spans"`
	}{regs, spans}, "", " ")
	if err != nil {
		return "", err
	}
	return profilePath, os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
