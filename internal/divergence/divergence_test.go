package divergence

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
)

func run(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDeterministicExactRows: two runs with the same seed must agree on
// every exact probe bit-for-bit — that is the property that lets CI
// diff a committed baseline at all.
func TestDeterministicExactRows(t *testing.T) {
	cfg := Config{Seed: 11, Ops: 100}
	a, b := run(t, cfg), run(t, cfg)
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row count %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Metric != rb.Metric {
			t.Fatalf("row %d: metric %q vs %q", i, ra.Metric, rb.Metric)
		}
		if !ra.Exact {
			continue
		}
		if ra.NL != rb.NL || ra.MN != rb.MN || ra.MV != rb.MV {
			t.Errorf("exact row %s not reproducible: %+v vs %+v", ra.Metric, ra, rb)
		}
	}
	for i := range a.Switches {
		sa, sb := a.Switches[i], b.Switches[i]
		if sa.Attaches != sb.Attaches || sa.Detaches != sb.Detaches {
			t.Errorf("switch %s: counts differ across runs", sa.Policy)
		}
		if (sa.Journal == nil) != (sb.Journal == nil) {
			t.Fatalf("switch %s: journal presence differs", sa.Policy)
		}
		if sa.Journal != nil && *sa.Journal != *sb.Journal {
			t.Errorf("switch %s: journal %+v vs %+v", sa.Policy, *sa.Journal, *sb.Journal)
		}
	}
}

// TestNativeTaxWithinPaperClaim: the whole point of the observatory —
// Mercury's native mode must track native Linux to a few percent.
func TestNativeTaxWithinPaperClaim(t *testing.T) {
	rep := run(t, Config{Seed: 11, Ops: 100})
	if rep.NativeTaxPct > 3.0 {
		t.Errorf("native tax %.2f%% exceeds the paper's ~2-3%% claim", rep.NativeTaxPct)
	}
	if rep.NativeTaxPct < -3.0 {
		t.Errorf("native tax %.2f%% is implausibly negative", rep.NativeTaxPct)
	}
	// Virtual mode must actually cost something, or the probes are not
	// measuring anything.
	if rep.VirtualTaxPct <= rep.NativeTaxPct {
		t.Errorf("virtual tax %.2f%% <= native tax %.2f%%",
			rep.VirtualTaxPct, rep.NativeTaxPct)
	}
}

// TestNativeTaxGate: the budget is the package constant, so a report
// over it fails even when the file it came from carries a zero budget,
// and a report under it passes.
func TestNativeTaxGate(t *testing.T) {
	over := &Report{NativeTaxPct: 3.5, NativeTaxBudgetPct: 0}
	if err := over.CheckNativeTax(); err == nil {
		t.Fatal("3.5% native tax passed with a zero budget in the report")
	}
	under := &Report{NativeTaxPct: NativeTaxBudgetPct - 0.01}
	if err := under.CheckNativeTax(); err != nil {
		t.Fatal(err)
	}
}

// TestBaselineRoundTrip: the committed file decodes back to exactly
// the report that was written, and every generated report carries the
// constant budget, never 0.
func TestBaselineRoundTrip(t *testing.T) {
	rep := run(t, Config{Seed: 11, Ops: 100})
	if rep.NativeTaxBudgetPct != NativeTaxBudgetPct {
		t.Fatalf("report budget %.2f, want %.2f", rep.NativeTaxBudgetPct, NativeTaxBudgetPct)
	}
	path := filepath.Join(t.TempDir(), "BENCH_divergence.json")
	if err := bench.WriteJSONFile(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Fatalf("round trip mangled the report:\n got %+v\nwant %+v", back, *rep)
	}
}

// TestRenderers: the markdown table carries every row and the switch
// decomposition; the text renderer mentions both policies.
func TestRenderers(t *testing.T) {
	rep := run(t, Config{Seed: 11, Ops: 100})
	var md bytes.Buffer
	rep.WriteMarkdown(&md)
	s := md.String()
	if !strings.Contains(s, "| metric | N-L | M-N | M-V |") {
		t.Error("markdown missing transparency table header")
	}
	for _, row := range rep.Rows {
		if !strings.Contains(s, "| "+row.Metric+" |") {
			t.Errorf("markdown missing row %s", row.Metric)
		}
	}
	if !strings.Contains(s, "recompute") || !strings.Contains(s, "journal") {
		t.Error("markdown missing switch probes")
	}

	var txt bytes.Buffer
	rep.WriteText(&txt)
	if !strings.Contains(txt.String(), "switch[recompute]") ||
		!strings.Contains(txt.String(), "switch[journal]") {
		t.Error("text renderer missing switch probes")
	}
}
