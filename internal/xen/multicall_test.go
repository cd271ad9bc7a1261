package xen

import (
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
)

// TestMulticallChargesOneEntryPerBatch verifies the batching economics:
// a batch pays WorldSwitch + HypercallBase once, and each extra op costs
// only the VMM's per-op dispatch. Deferred TLB flushes make the marginal
// cost exact — the coalesced hardware flush is charged once per batch no
// matter how many ops request it.
func TestMulticallChargesOneEntryPerBatch(t *testing.T) {
	v, d, c := testVMM(t)
	costs := v.M.Costs

	run := func(n int) hw.Cycles {
		var mc Multicall
		for i := 0; i < n; i++ {
			mc.AddTLBFlush()
		}
		start := c.Now()
		if err := v.HypMulticall(c, d, &mc); err != nil {
			t.Fatal(err)
		}
		if mc.Applied != n {
			t.Fatalf("Applied = %d, want %d", mc.Applied, n)
		}
		return c.Now() - start
	}
	c1, c8 := run(1), run(8)
	if got, want := c8-c1, 7*costs.MulticallPerOp; got != want {
		t.Fatalf("marginal cost of 7 extra ops = %d, want %d (MulticallPerOp only)", got, want)
	}
	if c1 <= costs.WorldSwitch+costs.HypercallBase {
		t.Fatalf("batch of 1 charged %d, at or below the bare entry cost", c1)
	}
}

// TestMulticallTelemetry checks the batch counters: one multicall, one
// VMM entry (the hypercall counter), and the op count on both the VMM
// and the domain.
func TestMulticallTelemetry(t *testing.T) {
	v, d, c := testVMM(t)
	var mc Multicall
	mc.AddTLBFlush()
	mc.AddTLBFlush()
	mc.AddTLBFlush()
	dm0, do0 := d.Stats.Multicalls.Load(), d.Stats.MulticallOps.Load()
	vm0, vo0 := v.Stats.Multicalls.Load(), v.Stats.MulticallOps.Load()
	h0 := v.Stats.Hypercalls.Load()
	if err := v.HypMulticall(c, d, &mc); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats.Multicalls.Load() - dm0; got != 1 {
		t.Errorf("domain multicalls += %d, want 1", got)
	}
	if got := d.Stats.MulticallOps.Load() - do0; got != 3 {
		t.Errorf("domain multicall ops += %d, want 3", got)
	}
	if got := v.Stats.Multicalls.Load() - vm0; got != 1 {
		t.Errorf("vmm multicalls += %d, want 1", got)
	}
	if got := v.Stats.MulticallOps.Load() - vo0; got != 3 {
		t.Errorf("vmm multicall ops += %d, want 3", got)
	}
	if got := v.Stats.Hypercalls.Load() - h0; got != 1 {
		t.Errorf("vmm entries += %d, want 1 (the whole batch is one entry)", got)
	}
}

// TestMulticallCoalescesTLBFlushes: any number of MCTLBFlush requests in
// one batch produce at most one hardware flush, executed at batch end.
func TestMulticallCoalescesTLBFlushes(t *testing.T) {
	v, d, c := testVMM(t)
	var mc Multicall
	for i := 0; i < 5; i++ {
		mc.AddTLBFlush()
	}
	f0 := c.TLB.Flushes
	if err := v.HypMulticall(c, d, &mc); err != nil {
		t.Fatal(err)
	}
	if got := c.TLB.Flushes - f0; got != 1 {
		t.Fatalf("5 flush requests caused %d hardware flushes, want 1", got)
	}
}

// TestMulticallNewBaseptrCancelsFlush: a CR3 load later in the batch
// satisfies an earlier deferred flush — no extra hardware flush runs.
func TestMulticallNewBaseptrCancelsFlush(t *testing.T) {
	v, d, c := testVMM(t)
	tb1, _ := buildTree(t, v, d, 1)
	tb2, _ := buildTree(t, v, d, 1)

	flushes := func(build func(*Multicall)) uint64 {
		var mc Multicall
		build(&mc)
		f0 := c.TLB.Flushes
		if err := v.HypMulticall(c, d, &mc); err != nil {
			t.Fatal(err)
		}
		return c.TLB.Flushes - f0
	}
	bare := flushes(func(mc *Multicall) { mc.AddNewBaseptr(tb1.Root) })
	withFlush := flushes(func(mc *Multicall) {
		mc.AddTLBFlush()
		mc.AddNewBaseptr(tb2.Root)
	})
	if withFlush != bare {
		t.Fatalf("flush+new_baseptr caused %d flushes, new_baseptr alone %d — the CR3 load should cancel the pending flush", withFlush, bare)
	}
}

// TestMulticallAppliedPrefixOnError: execution stops at the first
// failing op, Applied reports the applied prefix, the error names the
// op, and a deferred flush requested by an applied op still runs.
func TestMulticallAppliedPrefixOnError(t *testing.T) {
	v, d, c := testVMM(t)
	tb1, _ := buildTree(t, v, d, 1)
	tb2, _ := buildTree(t, v, d, 1)
	stray := d.Frames.Alloc() // never pinned: unpinning it must fail

	var mc Multicall
	mc.AddTLBFlush()
	mc.AddPin(tb1.Root)
	mc.AddUnpin(stray)
	mc.AddPin(tb2.Root) // never reached

	f0 := c.TLB.Flushes
	err := v.HypMulticall(c, d, &mc)
	if err == nil {
		t.Fatal("unpin of a never-pinned frame succeeded")
	}
	if !strings.Contains(err.Error(), "op 2 (unpin)") {
		t.Errorf("error does not name the failing op: %v", err)
	}
	if mc.Applied != 2 {
		t.Errorf("Applied = %d, want 2 (flush request + first pin)", mc.Applied)
	}
	if !d.HasPinned(tb1.Root) {
		t.Error("applied prefix lost: first pin not recorded")
	}
	if d.HasPinned(tb2.Root) {
		t.Error("op after the failure executed")
	}
	if got := c.TLB.Flushes - f0; got != 1 {
		t.Errorf("deferred flush on the error path: %d hardware flushes, want 1 — a partial batch must not leave stale translations live", got)
	}
}

// TestMulticallResetKeepsCapacityDropsRefs: Reset empties the batch
// without shrinking the backing array, and clears the Traps/Timer
// references so a warmed batch does not pin garbage.
func TestMulticallResetKeepsCapacityDropsRefs(t *testing.T) {
	var mc Multicall
	mc.AddSetTrapTable([]TrapEntry{{Vector: 3}})
	mc.AddBindVirqTimer(func(*hw.CPU) {})
	mc.Applied = 1
	backing := mc.Ops
	capBefore := cap(mc.Ops)

	mc.Reset()
	if mc.Len() != 0 || mc.Applied != 0 {
		t.Fatalf("after Reset: len %d, applied %d", mc.Len(), mc.Applied)
	}
	if cap(mc.Ops) != capBefore {
		t.Fatalf("Reset shrank capacity %d -> %d", capBefore, cap(mc.Ops))
	}
	if backing[0].Traps != nil || backing[1].Timer != nil {
		t.Fatal("Reset left Traps/Timer references in the backing array")
	}
}

// TestMulticallEnqueueFlushAllocFree is the hot-path allocation gate for
// the multicall layer: a warmed batch enqueues, executes, and resets
// with zero heap allocations.
func TestMulticallEnqueueFlushAllocFree(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 1)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	// Find a live L1 slot and reuse its exact value: a same-value store
	// is always valid, so the loop body is pure mechanism.
	var l1 hw.PFN
	for i := 0; i < hw.PTEntries; i++ {
		if pde := hw.ReadPTE(v.M.Mem, tb.Root, i); pde.Present() {
			l1 = pde.Frame()
			break
		}
	}
	idx, entry := -1, hw.PTE(0)
	for i := 0; i < hw.PTEntries; i++ {
		if pte := hw.ReadPTE(v.M.Mem, l1, i); pte.Present() {
			idx, entry = i, pte
			break
		}
	}
	if idx < 0 {
		t.Fatal("no live L1 entry found")
	}

	mc := Multicall{Ops: make([]MCOp, 0, 8)}
	allocs := testing.AllocsPerRun(100, func() {
		mc.AddUpdate(MMUUpdate{Table: l1, Index: idx, New: entry})
		mc.AddTLBFlush()
		if err := v.HypMulticall(c, d, &mc); err != nil {
			panic(err)
		}
		mc.Reset()
	})
	if allocs != 0 {
		t.Fatalf("multicall enqueue+flush allocates %.1f per run, want 0", allocs)
	}
}

// TestHypercallPrologueAllocFree is the allocation gate for the one
// hypercall prologue: the enter/exit pair every hypercall goes through
// must not touch the heap, with or without a collector installed.
// stack_switch runs on every virtualized context switch. With a
// collector, the tracer's span buffer grows by doubling; that
// amortized growth stays below one allocation per call once warm.
func TestHypercallPrologueAllocFree(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	p0 := v.EvtchnAllocUnbound(c, d0, dU.ID)
	d0.SetPortHandler(p0, func(*hw.CPU) {})
	pU, err := v.EvtchnBindInterdomain(c, dU, d0.ID, p0)
	if err != nil {
		t.Fatal(err)
	}
	far := c.Now() + 1<<40
	calls := []struct {
		name string
		fn   func()
	}{
		{"HypStackSwitch", func() { v.HypStackSwitch(c, dU) }},
		{"HypSetTimer", func() { v.HypSetTimer(c, dU, far) }},
		{"EvtchnSend", func() {
			if err := v.EvtchnSend(c, dU, pU); err != nil {
				panic(err)
			}
		}},
	}
	for _, withCol := range []bool{false, true} {
		if withCol {
			v.M.SetTelemetry(obs.New(1))
		}
		for _, call := range calls {
			for i := 0; i < 64; i++ {
				call.fn()
			}
			if a := testing.AllocsPerRun(100, call.fn); a != 0 {
				t.Errorf("%s (collector %v) allocates %.1f per call, want 0", call.name, withCol, a)
			}
		}
	}
}
