package obs

import (
	"strings"
	"testing"
)

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("xen", "hypercalls_total")
	b := r.Counter("xen", "hypercalls_total")
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	a.Add(3)
	if b.Load() != 3 {
		t.Fatalf("shared counter = %d", b.Load())
	}
	// Label order is immaterial.
	x := r.Counter("vo", "calls_total", L("object", "native"), L("cpu", "0"))
	y := r.Counter("vo", "calls_total", L("cpu", "0"), L("object", "native"))
	if x != y {
		t.Fatal("label order changed identity")
	}
	// Different label values are different instruments.
	z := r.Counter("vo", "calls_total", L("cpu", "1"), L("object", "native"))
	if x == z {
		t.Fatal("distinct labels shared a counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("a", "x")
}

func TestRegisterCounterAdoptsExisting(t *testing.T) {
	r := NewRegistry()
	free := NewCounter()
	free.Add(7)
	r.RegisterCounter(free, "vo", "calls_total", L("object", "direct"))
	if got := r.Counter("vo", "calls_total", L("object", "direct")); got != free {
		t.Fatal("adoption registered a different counter")
	}
	// The registry now reads through the same object.
	free.Add(1)
	var seen uint64
	r.Each(func(m *Metric) {
		if m.Subsystem == "vo" {
			seen = m.counter.Load()
		}
	})
	if seen != 8 {
		t.Fatalf("registry sees %d, want 8", seen)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("migrate", "dirty_pages")
	g.Set(12)
	g.Add(-2)
	if g.Load() != 10 {
		t.Fatalf("gauge = %d", g.Load())
	}
}

func TestHistogramQuantilesAndBuckets(t *testing.T) {
	h := NewHistogram()
	// 100 observations in [1000, 2000): all land in bucket 11 ([1024,2048))
	// except values < 1024 which land in bucket 10.
	for i := 0; i < 100; i++ {
		h.Observe(uint64(1000 + i*10))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1990 {
		t.Fatalf("max = %d", h.Max())
	}
	if h.Mean() < 1400 || h.Mean() > 1600 {
		t.Fatalf("mean = %f", h.Mean())
	}
	// The p99 estimate must be within the bucket ladder's factor-of-two
	// resolution and clamped to the observed max.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		est := h.Quantile(q)
		if est < 1000/2 || est > 1990 {
			t.Fatalf("q%.2f = %f out of range", q, est)
		}
	}
	uppers, cum := h.Buckets()
	if len(uppers) == 0 || len(uppers) != len(cum) {
		t.Fatalf("buckets: %v %v", uppers, cum)
	}
	if cum[len(cum)-1] != 100 {
		t.Fatalf("cumulative end = %d", cum[len(cum)-1])
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] || uppers[i] <= uppers[i-1] {
			t.Fatal("buckets not monotone")
		}
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(0)
	if h.Quantile(0.5) != 0 {
		t.Fatalf("all-zero quantile = %f", h.Quantile(0.5))
	}
}

func TestHistogramMaxRace(t *testing.T) {
	h := NewHistogram()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				h.Observe(uint64(g*1000 + i))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if h.Count() != 4000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 3999 {
		t.Fatalf("max = %d", h.Max())
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("xen", "hypercalls_total").Add(5)
	r.Gauge("migrate", "dirty_pages").Set(3)
	r.Histogram("core", "attach_cycles").Observe(1500)
	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE mercury_xen_hypercalls_total counter",
		"mercury_xen_hypercalls_total 5",
		"# TYPE mercury_migrate_dirty_pages gauge",
		"mercury_migrate_dirty_pages 3",
		"# TYPE mercury_core_attach_cycles histogram",
		`mercury_core_attach_cycles_bucket{le="+Inf"} 1`,
		"mercury_core_attach_cycles_sum 1500",
		"mercury_core_attach_cycles_count 1",
		`mercury_core_attach_cycles_quantile{q="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("xen", "hypercalls_total", L("dom", "0")).Add(2)
	r.Histogram("core", "attach_cycles").Observe(100)
	dump := r.Dump()
	if len(dump) != 2 {
		t.Fatalf("dump has %d entries", len(dump))
	}
	var sawCounter, sawHist bool
	for _, d := range dump {
		switch d.Kind {
		case "counter":
			sawCounter = true
			if d.Value != 2 || d.Labels["dom"] != "0" {
				t.Fatalf("counter dump: %+v", d)
			}
		case "histogram":
			sawHist = true
			if d.Histogram == nil || d.Histogram.Count != 1 {
				t.Fatalf("hist dump: %+v", d)
			}
		}
	}
	if !sawCounter || !sawHist {
		t.Fatal("dump missing kinds")
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hypercalls_total") {
		t.Fatal("json missing metric")
	}
}
