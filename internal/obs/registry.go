package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. It is a free-standing
// atomic so subsystems can count unconditionally and hand the same
// object to a registry — one counting path, one source of truth.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns an unregistered counter (used where no collector
// is installed; the adapter pattern in internal/vo).
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// MetricKind discriminates registry entries.
type MetricKind uint8

// Metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Metric is one registered instrument with its identity.
type Metric struct {
	Subsystem string
	Name      string
	Labels    []Label // sorted by key
	Kind      MetricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry keys instruments by subsystem/name{labels} and hands out
// get-or-create handles. Lookups take a read lock; sites on hot paths
// should cache the returned handle.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*Metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*Metric)}
}

// key canonicalizes an instrument identity.
func key(subsystem, name string, labels []Label) string {
	if len(labels) == 0 {
		return subsystem + "/" + name
	}
	var b strings.Builder
	b.WriteString(subsystem)
	b.WriteByte('/')
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the metric for an identity, creating it with mk on
// first use. Labels are sorted by key so call-site order is immaterial.
func (r *Registry) lookup(subsystem, name string, labels []Label,
	kind MetricKind, mk func(*Metric)) *Metric {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	k := key(subsystem, name, ls)

	r.mu.RLock()
	m := r.metrics[k]
	r.mu.RUnlock()
	if m != nil {
		if m.Kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %v, requested as %v", k, m.Kind, kind))
		}
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.metrics[k]; m != nil {
		if m.Kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %v, requested as %v", k, m.Kind, kind))
		}
		return m
	}
	m = &Metric{Subsystem: subsystem, Name: name, Labels: ls, Kind: kind}
	mk(m)
	r.metrics[k] = m
	return m
}

// Counter returns the counter for subsystem/name{labels}, creating it
// on first use.
func (r *Registry) Counter(subsystem, name string, labels ...Label) *Counter {
	return r.lookup(subsystem, name, labels, KindCounter,
		func(m *Metric) { m.counter = NewCounter() }).counter
}

// Gauge returns the gauge for subsystem/name{labels}.
func (r *Registry) Gauge(subsystem, name string, labels ...Label) *Gauge {
	return r.lookup(subsystem, name, labels, KindGauge,
		func(m *Metric) { m.gauge = NewGauge() }).gauge
}

// Histogram returns the log-scaled cycle histogram for
// subsystem/name{labels}.
func (r *Registry) Histogram(subsystem, name string, labels ...Label) *Histogram {
	return r.lookup(subsystem, name, labels, KindHistogram,
		func(m *Metric) { m.hist = NewHistogram() }).hist
}

// RegisterCounter adopts an existing counter under the given identity,
// so a subsystem that counts unconditionally (internal/vo) can expose
// the same object through the registry. Adopting the same counter again
// is a no-op; an identity already held by a different counter panics,
// as a kind mismatch does: one of the two counts would be lost.
func (r *Registry) RegisterCounter(c *Counter, subsystem, name string, labels ...Label) {
	m := r.lookup(subsystem, name, labels, KindCounter,
		func(m *Metric) { m.counter = c })
	if m.counter != c {
		panic(fmt.Sprintf("obs: %s already adopted a different counter",
			key(subsystem, name, m.Labels)))
	}
}

// Each calls fn for every registered metric in sorted key order.
func (r *Registry) Each(fn func(m *Metric)) {
	r.mu.RLock()
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	ms := make([]*Metric, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		ms = append(ms, r.metrics[k])
	}
	r.mu.RUnlock()
	for _, m := range ms {
		fn(m)
	}
}
