package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// --- Prometheus-style text exposition ---

// promName mangles an identity into a legal Prometheus metric name.
func promName(m *Metric) string {
	n := "mercury_" + m.Subsystem + "_" + m.Name
	return strings.NewReplacer("/", "_", "-", "_", ".", "_").Replace(n)
}

// promLabels renders {k="v",...} (empty string when no labels).
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteProm writes the registry in the Prometheus text exposition
// format. Histograms emit cumulative le buckets plus _sum/_count and
// estimated p50/p95/p99 as companion gauges (cycle units throughout).
func (r *Registry) WriteProm(w io.Writer) {
	typeDone := make(map[string]bool)
	r.Each(func(m *Metric) {
		name := promName(m)
		switch m.Kind {
		case KindCounter:
			if !typeDone[name] {
				fmt.Fprintf(w, "# TYPE %s counter\n", name)
				typeDone[name] = true
			}
			fmt.Fprintf(w, "%s%s %d\n", name, promLabels(m.Labels), m.counter.Load())
		case KindGauge:
			if !typeDone[name] {
				fmt.Fprintf(w, "# TYPE %s gauge\n", name)
				typeDone[name] = true
			}
			fmt.Fprintf(w, "%s%s %d\n", name, promLabels(m.Labels), m.gauge.Load())
		case KindHistogram:
			if !typeDone[name] {
				fmt.Fprintf(w, "# TYPE %s histogram\n", name)
				typeDone[name] = true
			}
			h := m.hist
			uppers, cum := h.Buckets()
			for i := range uppers {
				fmt.Fprintf(w, "%s_bucket%s %d\n", name,
					promLabels(m.Labels, L("le", fmt.Sprintf("%g", uppers[i]))), cum[i])
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", name,
				promLabels(m.Labels, L("le", "+Inf")), h.Count())
			fmt.Fprintf(w, "%s_sum%s %d\n", name, promLabels(m.Labels), h.Sum())
			fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(m.Labels), h.Count())
			for _, q := range []struct {
				p string
				q float64
			}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
				fmt.Fprintf(w, "%s_quantile%s %g\n", name,
					promLabels(m.Labels, L("q", q.p)), h.Quantile(q.q))
			}
		}
	})
}

// --- JSON metric dump ---

// HistDump is the JSON shape of one histogram.
type HistDump struct {
	Count   uint64    `json:"count"`
	Sum     uint64    `json:"sum"`
	Max     uint64    `json:"max"`
	Mean    float64   `json:"mean"`
	P50     float64   `json:"p50"`
	P95     float64   `json:"p95"`
	P99     float64   `json:"p99"`
	Uppers  []float64 `json:"bucket_uppers,omitempty"`
	CumCnts []uint64  `json:"bucket_cumulative,omitempty"`
}

// MetricDump is the JSON shape of one registry entry.
type MetricDump struct {
	Subsystem string            `json:"subsystem"`
	Name      string            `json:"name"`
	Labels    map[string]string `json:"labels,omitempty"`
	Kind      string            `json:"kind"`
	Value     int64             `json:"value,omitempty"`
	Histogram *HistDump         `json:"histogram,omitempty"`
}

// Dump snapshots the registry into exportable records.
func (r *Registry) Dump() []MetricDump {
	var out []MetricDump
	r.Each(func(m *Metric) {
		d := MetricDump{Subsystem: m.Subsystem, Name: m.Name, Kind: m.Kind.String()}
		if len(m.Labels) > 0 {
			d.Labels = make(map[string]string, len(m.Labels))
			for _, l := range m.Labels {
				d.Labels[l.Key] = l.Value
			}
		}
		switch m.Kind {
		case KindCounter:
			d.Value = int64(m.counter.Load())
		case KindGauge:
			d.Value = m.gauge.Load()
		case KindHistogram:
			h := m.hist
			uppers, cum := h.Buckets()
			d.Histogram = &HistDump{
				Count: h.Count(), Sum: h.Sum(), Max: h.Max(), Mean: h.Mean(),
				P50: h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
				Uppers: uppers, CumCnts: cum,
			}
		}
		out = append(out, d)
	})
	return out
}

// WriteJSON writes the registry dump as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Dump())
}

// --- Chrome trace_event export ---

// chromeEvent is one trace_event record. Field names follow the
// Trace Event Format (chrome://tracing / Perfetto).
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope form of a trace file.
type chromeTrace struct {
	Events          []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders spans as Chrome trace_event JSON. Cycle
// timestamps convert to microseconds at hz; span nesting is carried by
// complete ("X") events, instants by "i".
func WriteChromeTrace(w io.Writer, hz uint64, spans []Span) error {
	if hz == 0 {
		return fmt.Errorf("obs: chrome export needs a nonzero clock frequency")
	}
	us := func(cyc uint64) float64 { return float64(cyc) / float64(hz) * 1e6 }
	tr := chromeTrace{DisplayTimeUnit: "ns", Events: []chromeEvent{}}
	for _, s := range spans {
		ev := chromeEvent{Name: s.Name, TS: us(s.Start), PID: 1, TID: s.CPU,
			Args: map[string]any{"span_id": s.ID, "parent": s.Parent, "arg": s.Arg,
				"start_cycles": s.Start, "cycles": s.Dur()}}
		if s.Kind() == SpanInstant {
			ev.Ph = "i"
			ev.Scope = "t"
		} else {
			ev.Ph = "X"
			d := us(s.Dur())
			ev.Dur = &d
		}
		tr.Events = append(tr.Events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// ValidateChromeTrace checks that data parses as a trace_event file and
// every record satisfies the format's schema: a name, a known phase,
// a non-negative microsecond timestamp, pid/tid present, and a
// non-negative duration on complete events. Tests round-trip the
// exporter's output through this.
func ValidateChromeTrace(data []byte) error {
	var tr struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if tr.Events == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	known := map[string]bool{"X": true, "i": true, "B": true, "E": true, "M": true}
	for i, ev := range tr.Events {
		name, ok := ev["name"].(string)
		if !ok || name == "" {
			return fmt.Errorf("obs: event %d: missing name", i)
		}
		ph, ok := ev["ph"].(string)
		if !ok || !known[ph] {
			return fmt.Errorf("obs: event %d (%s): bad phase %v", i, name, ev["ph"])
		}
		ts, ok := ev["ts"].(float64)
		if !ok || ts < 0 {
			return fmt.Errorf("obs: event %d (%s): bad ts %v", i, name, ev["ts"])
		}
		if _, ok := ev["pid"].(float64); !ok {
			return fmt.Errorf("obs: event %d (%s): missing pid", i, name)
		}
		if _, ok := ev["tid"].(float64); !ok {
			return fmt.Errorf("obs: event %d (%s): missing tid", i, name)
		}
		if ph == "X" {
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 0 {
				return fmt.Errorf("obs: event %d (%s): complete event with bad dur %v", i, name, ev["dur"])
			}
		}
	}
	return nil
}
