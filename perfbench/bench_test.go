package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	a, b := genInputs(7), genInputs(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	c := genInputs(8)
	if reflect.DeepEqual(a.Ops, c.Ops) || reflect.DeepEqual(a.Episodes, c.Episodes) {
		t.Fatal("different seeds generated identical inputs")
	}
	ws := map[int]int{}
	for _, class := range opClasses {
		n := 0
		for _, op := range a.Ops {
			if op.Class != class {
				continue
			}
			n++
			nominal := opSize[class]
			if d := op.N - nominal; d < -nominal*jitterPct/100 || d > nominal*jitterPct/100 {
				t.Errorf("%v size %d, more than %d%% from %d", class, op.N, jitterPct, nominal)
			}
			if class == opPipe16 {
				ws[op.WS]++
			}
		}
		if n != opsPerClass {
			t.Errorf("%v: %d operations, want %d", class, n, opsPerClass)
		}
	}
	if ws[pipe16WS[0]] != opsPerClass/2 || ws[pipe16WS[1]] != opsPerClass/2 {
		t.Errorf("pipe16 working sets %v, want half %d pages, half %d", ws, pipe16WS[0], pipe16WS[1])
	}
	for i, ep := range a.Episodes {
		light := i%2 == 0
		if light && ep.Dirty != lightDirty ||
			!light && (ep.Dirty < heavyDirty*(100-jitterPct)/100 || ep.Dirty > heavyDirty*(100+jitterPct)/100) {
			t.Fatalf("episode %d dirties %d pages", i, ep.Dirty)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric names live in.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d printed", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, printed %s %s %s", i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d printed", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer[%d] = %s %s, printed %s %s", i, m.Name, m.Unit, s.Name, s.Unit)
		}
	}
}

// fullReport is a report holding every metric of specs.
func fullReport(specs []MetricSpec) *report {
	rep := &report{Metrics: Metrics{}, Attempted: 1}
	for i, s := range specs {
		rep.Metrics.set(s.Name, float64(i)+0.5, 3)
	}
	return rep
}

func TestPrintedMetricsCarryUnits(t *testing.T) {
	for _, tc := range []struct {
		trace bool
		specs []MetricSpec
	}{{false, endToEnd}, {true, perLayer}} {
		var out bytes.Buffer
		cfg := config{Workload: "switch-smp", Seed: 1, Trace: tc.trace}
		if err := printReport(&out, cfg, fullReport(tc.specs), tc.specs); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the JSON result: %v", err)
		}
		if !res.Correct || res.Attempted != 1 || len(res.Metrics) != len(tc.specs) {
			t.Fatalf("result %+v", res)
		}
		for _, s := range tc.specs {
			m, ok := res.Metrics[s.Name]
			if !ok || m.Unit != s.Unit || m.Unit == "" {
				t.Errorf("%s: printed %+v, want unit %q", s.Name, m, s.Unit)
			}
			if !strings.Contains(out.String(), s.Name+" ") {
				t.Errorf("%s missing from the readable lines", s.Name)
			}
		}
	}
	// A metric that was not measured is an error, not a silent zero.
	rep := fullReport(endToEnd)
	delete(rep.Metrics, "detach_us_p99")
	if err := printReport(&bytes.Buffer{}, config{}, rep, endToEnd); err == nil {
		t.Fatal("a missing metric was printed")
	}
}

func TestGateFailsOnDoctoredResults(t *testing.T) {
	counts := logicalCounts{Syscalls: 10, Forks: 2, PageFaults: 30, PTEWrites: 40}
	lm := &lmbenchResult{Ops: make([]Op, 5)}
	for _, key := range []string{"N-L", "M-N", "M-V", "M-U"} {
		lm.Runs = append(lm.Runs, sysRun{Key: key, Counts: counts})
	}
	rep := &report{}
	gateLmbench(rep, lm)
	if rep.Failed != 0 || rep.Attempted != 20 {
		t.Fatalf("clean lmbench result: failed %d attempted %d", rep.Failed, rep.Attempted)
	}
	lm.Runs[2].Counts.PageFaults++ // a page fault M-V saw and N-L did not
	gateLmbench(rep, lm)
	if rep.Failed != 1 || !strings.Contains(rep.Notes[0], "page faults") {
		t.Fatalf("mismatched page faults: failed %d, notes %v", rep.Failed, rep.Notes)
	}
	rep = &report{}
	gateSwitch(rep, &switchResult{Failed: 1})
	if rep.Failed == 0 {
		t.Fatal("a failed SwitchSync passed the gate")
	}

	var out bytes.Buffer
	doctored := fullReport(endToEnd)
	doctored.fail(1, "doctored")
	if err := printReport(&out, config{}, doctored, endToEnd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), `"failed":1`) {
		t.Fatalf("doctored result printed as correct:\n%s", out.String())
	}
}

func TestLmbenchReplayIsTransparentAndDeterministic(t *testing.T) {
	ops := genOpMix(3)[:2*len(opClasses)]
	var sigs []string
	for i := 0; i < 2; i++ {
		systems, err := buildLmbench(nil)
		if err != nil {
			t.Fatal(err)
		}
		r := runLmbench(systems, ops)
		rep := &report{}
		gateLmbench(rep, &r)
		if rep.Failed != 0 {
			t.Fatalf("gate failed: %v", rep.Notes)
		}
		sigs = append(sigs, simSignature(passResult{LM: &r}))
	}
	if sigs[0] != sigs[1] {
		t.Fatal("two replays of one mix differ on the simulated clock")
	}
}

func TestPhaseSelfTime(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Name: "switch/attach", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "phase/state-reload", Start: 0, End: 20},
		{ID: 3, Parent: 1, Name: "phase/frame-recompute", Start: 20, End: 90},
		{ID: 4, Parent: 3, Name: "switch/recompute-merge", Start: 30, End: 70},
		{ID: 5, Name: "switch/detach", Start: 200, End: 250, Arg: 1}, // failed: ignored
	}
	var ps phaseStats
	ps.add(spans)
	if ps.Switches != 1 {
		t.Fatalf("%d switches, want 1", ps.Switches)
	}
	if got := ps.Self["attach.frame-recompute"]; len(got) != 1 || got[0] != 30 {
		t.Fatalf("frame-recompute self time %v, want [30]", got)
	}
	if got := ps.Unattributed; len(got) != 1 || got[0] != 10 {
		t.Fatalf("unattributed %v, want [10]", got)
	}
}

//go:noinline
func burn(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestHostSharesParsesCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := hostShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no samples decoded")
	}
	for _, pkg := range hostPackages {
		if v, ok := shares[pkg]; !ok || v < 0 || v > 100 {
			t.Errorf("%s share %v", pkg, v)
		}
	}
	if bucket([]string{"sync.(*RWMutex).RLock", "repro/internal/hw.(*PhysMem).frame"}) != "sync" ||
		bucket([]string{"repro/internal/xen.(*VMM).Hypercall"}) != "xen" ||
		bucket([]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}) != "gc" ||
		bucket([]string{"runtime.futex", "runtime.schedule", "runtime.Gosched"}) != "sched" {
		t.Fatal("stack classification")
	}
}
