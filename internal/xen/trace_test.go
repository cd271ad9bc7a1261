package xen

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
)

// The span tracer is the VMM's only per-event trace: every hypervisor
// decision point leaves a span or an instant when a collector is
// installed. These tests pin down the records the decision points
// without a span of their own (pin, unpin, batched event send) leave.

// traced installs a fresh collector on v's machine.
func traced(v *VMM) *obs.Collector {
	col := obs.New(len(v.M.CPUs))
	v.M.SetTelemetry(col)
	return col
}

// named returns the spans called name, in completion order.
func named(spans []obs.Span, name string) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func TestTracerCoversPinAndUnpin(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 2)
	col := traced(v)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	if err := v.HypUnpinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	spans := col.Tracer.Spans()

	hcs := named(spans, "xen/hypercall")
	if len(hcs) != 2 {
		t.Fatalf("%d xen/hypercall spans, want 2", len(hcs))
	}
	for _, hc := range hcs {
		if hc.Arg != uint64(d.ID) || hc.Kind() != obs.SpanDur {
			t.Fatalf("hypercall span %+v: want a duration with arg = dom%d", hc, d.ID)
		}
	}
	for i, name := range []string{"xen/pin", "xen/unpin"} {
		ins := named(spans, name)
		if len(ins) != 1 {
			t.Fatalf("%d %s instants, want 1", len(ins), name)
		}
		in := ins[0]
		if in.Kind() != obs.SpanInstant || in.Arg != uint64(tb.Root) {
			t.Fatalf("%s %+v: want an instant with arg = root %d", name, in, tb.Root)
		}
		if in.Parent != hcs[i].ID {
			t.Fatalf("%s parented under span %d, want its hypercall %d", name, in.Parent, hcs[i].ID)
		}
		if in.Start < hcs[i].Start || in.Start > hcs[i].End {
			t.Fatalf("%s at %d outside its hypercall [%d, %d]", name, in.Start, hcs[i].Start, hcs[i].End)
		}
	}
}

// TestTracerCoversBatchedEventSend: an MCEvtchnSend inside a multicall
// is traced like a direct EvtchnSend, under the multicall's hypercall.
func TestTracerCoversBatchedEventSend(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	fired := 0
	p0 := v.EvtchnAllocUnbound(c, d0, dU.ID)
	d0.SetPortHandler(p0, func(*hw.CPU) { fired++ })
	pU, err := v.EvtchnBindInterdomain(c, dU, d0.ID, p0)
	if err != nil {
		t.Fatal(err)
	}
	col := traced(v)
	var mc Multicall
	mc.AddStackSwitch()
	mc.AddEvtchnSend(pU)
	if err := v.HypMulticall(c, dU, &mc); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("handler fired %d times, want 1", fired)
	}
	spans := col.Tracer.Spans()
	hcs := named(spans, "xen/hypercall")
	if len(hcs) != 1 {
		t.Fatalf("%d xen/hypercall spans, want 1", len(hcs))
	}
	for _, want := range []struct {
		name string
		arg  uint64
	}{{"xen/multicall", 2}, {"xen/event-send", uint64(pU)}} {
		ins := named(spans, want.name)
		if len(ins) != 1 {
			t.Fatalf("%d %s instants, want 1", len(ins), want.name)
		}
		if ins[0].Arg != want.arg || ins[0].Parent != hcs[0].ID {
			t.Fatalf("%s %+v: want arg %d under hypercall %d", want.name, ins[0], want.arg, hcs[0].ID)
		}
	}
}

// TestTracerCoversRecomputePins: the attach-time recompute, serial or
// sharded, leaves one xen/pin per pinned root.
func TestTracerCoversRecomputePins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		v, d, c := testVMM(t)
		roots := buildForest(t, v, d, 5, 3)
		col := traced(v)
		if err := v.RecomputeFrameInfoAuto(c, d, roots, workers); err != nil {
			t.Fatal(err)
		}
		pins := named(col.Tracer.Spans(), "xen/pin")
		if len(pins) != len(roots) {
			t.Fatalf("workers=%d: %d xen/pin instants for %d roots", workers, len(pins), len(roots))
		}
		for i, p := range pins {
			if p.Arg != uint64(roots[i]) || !d.HasPinned(roots[i]) {
				t.Fatalf("workers=%d: pin %d has arg %d, want pinned root %d", workers, i, p.Arg, roots[i])
			}
		}
	}
}
