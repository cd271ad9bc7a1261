package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
)

// tracedMercury boots a uniprocessor Mercury system with a collector
// installed before boot, as main does for the trace paths.
func tracedMercury(t *testing.T) (*core.Mercury, *obs.Collector) {
	t.Helper()
	col := obs.New(1)
	machine := hw.NewMachine(hw.DefaultConfig())
	machine.SetTelemetry(col)
	mc, err := core.New(core.Config{Machine: machine, Policy: core.TrackRecompute})
	if err != nil {
		t.Fatal(err)
	}
	return mc, col
}

// TestTraceCmdWritesChromeTrace: `mercuryctl trace -o` writes a valid
// trace_event file holding the switch roots, the hypercalls made
// inside them and the pin of the process's address space at attach.
func TestTraceCmdWritesChromeTrace(t *testing.T) {
	mc, col := tracedMercury(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	traceCmd(mc, col, out)

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ev := range tr.TraceEvents {
		seen[ev.Name]++
	}
	for _, name := range []string{"switch/attach", "switch/detach", "xen/hypercall", "xen/pin"} {
		if seen[name] == 0 {
			t.Errorf("trace has no %s event; saw %v", name, seen)
		}
	}
}

// TestTraceDemoPrintsEvents: `mercuryctl -demo trace` prints a
// non-empty event list.
func TestTraceDemoPrintsEvents(t *testing.T) {
	mc, col := tracedMercury(t)
	var buf bytes.Buffer
	trace(&buf, mc, col)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 || strings.HasPrefix(lines[0], "0 events") {
		t.Fatalf("empty event list:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "switch/attach") {
		t.Fatalf("event list has no switch/attach:\n%s", buf.String())
	}
}
