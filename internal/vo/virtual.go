package vo

import (
	"fmt"
	"strconv"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/xen"
)

// Virtual is the virtual-mode virtualization object: every sensitive
// operation invokes the VMM's interface (hypercalls in Xen terms) instead
// of touching hardware, because the kernel now runs deprivileged at PL1
// (§3.2.1, §5.3).
//
// Inside a lazy-MMU section (BeginLazyMMU/EndLazyMMU, the Linux
// xen_mc_batch pattern) MMU operations enqueue into a per-CPU multicall
// buffer and drain in ONE world switch at section boundaries, so a
// fork's PTE storm or an attach's pin ladder pays WorldSwitch +
// HypercallBase once instead of per operation.
type Virtual struct {
	V *xen.VMM
	D *xen.Domain
	// TrapEmulate routes single-entry stores through the VMM's
	// trap-and-emulation path instead of explicit hypercalls — the
	// §5.3 alternative for code kept outside the VO. Batches still use
	// mmu_update, and lazy sections fall back to eager emulation.
	TrapEmulate bool
	refcount
	Stats Stats

	// lazy is the per-CPU lazy-MMU state, indexed by CPU ID.
	lazy []lazyBuf
}

// lazyBuf is one CPU's lazy-MMU state: the section nesting depth, the
// pending multicall, and a one-entry scratch so the eager WritePTE path
// builds its mmu_update batch without a heap allocation.
type lazyBuf struct {
	depth int
	mc    xen.Multicall
	one   [1]xen.MMUUpdate
}

// mcBatchCap caps the pending ops per lazy buffer: past this the buffer
// self-flushes, bounding both the VMM's per-entry latency and the
// window a failed op can leave unapplied (Xen-Linux uses a similarly
// bounded multicall page).
const mcBatchCap = 512

// NewVirtual returns the virtual-mode object for domain d.
func NewVirtual(v *xen.VMM, d *xen.Domain) *Virtual {
	o := &Virtual{V: v, D: d,
		Stats: newStats(v.M, "virtual", obs.L("dom", strconv.Itoa(int(d.ID))))}
	o.lazy = make([]lazyBuf, len(v.M.CPUs))
	for i := range o.lazy {
		o.lazy[i].mc.Ops = make([]xen.MCOp, 0, mcBatchCap+4)
	}
	return o
}

// callEnter is the operation prologue: object-table indirection plus
// reference counting. Pair with `defer o.exit()` — unlike a returned
// closure, the plain defer is open-coded and allocation-free.
func (o *Virtual) callEnter(c *hw.CPU) {
	o.Stats.Calls.Add(1)
	o.enter() // count first: the charges below may deliver interrupts
	c.Charge(o.V.M.Costs.VOIndirect + o.V.M.Costs.VORefCount)
}

// Name identifies the object.
func (o *Virtual) Name() string { return "virtual" }

// Virtualized reports true.
func (o *Virtual) Virtualized() bool { return true }

// SetInterrupts toggles the virtual interrupt flag — a cheap shared-
// memory write, the paravirtual replacement for cli/sti.
func (o *Virtual) SetInterrupts(c *hw.CPU, on bool) {
	o.callEnter(c)
	defer o.exit()
	o.V.SetVIF(c, o.D, on)
}

// LoadInterruptTable registers the kernel's handlers with the VMM
// (set_trap_table): the hardware IDT stays the VMM's.
func (o *Virtual) LoadInterruptTable(c *hw.CPU, t *hw.IDT) {
	o.callEnter(c)
	defer o.exit()
	entries := make([]xen.TrapEntry, 0, 16)
	for v := 0; v < hw.NumVectors; v++ {
		g := t.Get(v)
		if g.Present {
			entries = append(entries, xen.TrapEntry{Vector: v, Handler: g.Handler})
		}
	}
	o.V.HypSetTrapTable(c, o.D, entries)
}

// ArmTimer programs the timer via the VMM.
func (o *Virtual) ArmTimer(c *hw.CPU, deadline hw.Cycles) {
	o.callEnter(c)
	defer o.exit()
	o.V.HypSetTimer(c, o.D, deadline)
}

// ContextSwitch performs the paravirtual context switch: stack switch
// plus new page-directory base in one multicall. In a lazy section the
// pending buffer rides along in the same VMM entry — and the CR3 load
// is a batch boundary, so the buffer drains here regardless.
func (o *Virtual) ContextSwitch(c *hw.CPU, root hw.PFN) {
	o.callEnter(c)
	defer o.exit()
	if b := &o.lazy[c.ID]; b.depth > 0 {
		c.Charge(o.V.M.Costs.MulticallEnqueue * 2)
		b.mc.AddStackSwitch()
		b.mc.AddNewBaseptr(root)
		o.flushLazy(c, b)
		return
	}
	if err := o.V.HypContextSwitch(c, o.D, root); err != nil {
		panic(fmt.Sprintf("vo: context switch hypercall: %v", err))
	}
}

// WritePTE issues a single-entry update: enqueued into the lazy buffer
// inside a lazy section, otherwise an explicit mmu_update hypercall, or
// — under TrapEmulate — a direct store that faults into the VMM and is
// emulated there.
func (o *Virtual) WritePTE(c *hw.CPU, table hw.PFN, idx int, e hw.PTE) {
	o.callEnter(c)
	defer o.exit()
	o.Stats.PTEWrites.Add(1)
	u := xen.MMUUpdate{Table: table, Index: idx, New: e}
	b := &o.lazy[c.ID]
	if b.depth > 0 && !o.TrapEmulate {
		o.enqueueUpdate(c, b, u)
		return
	}
	var err error
	if o.TrapEmulate {
		err = o.V.EmulatePTEWrite(c, o.D, u)
	} else {
		b.one[0] = u
		err = o.V.HypMMUUpdate(c, o.D, b.one[:])
	}
	if err != nil {
		panic(fmt.Sprintf("vo: mmu_update: %v", err))
	}
}

// WritePTEBatch issues one mmu_update for the whole batch: one world
// switch amortized over every entry. In a lazy section the entries join
// the pending multicall instead.
func (o *Virtual) WritePTEBatch(c *hw.CPU, batch []xen.MMUUpdate) {
	o.callEnter(c)
	defer o.exit()
	o.Stats.PTEWrites.Add(uint64(len(batch)))
	if b := &o.lazy[c.ID]; b.depth > 0 && !o.TrapEmulate {
		for _, u := range batch {
			o.enqueueUpdate(c, b, u)
		}
		return
	}
	if err := o.V.HypMMUUpdate(c, o.D, batch); err != nil {
		panic(fmt.Sprintf("vo: mmu_update batch: %v", err))
	}
}

// enqueueUpdate appends one entry store to the lazy buffer,
// self-flushing at the cap.
func (o *Virtual) enqueueUpdate(c *hw.CPU, b *lazyBuf, u xen.MMUUpdate) {
	c.Charge(o.V.M.Costs.MulticallEnqueue)
	b.mc.AddUpdate(u)
	if b.mc.Len() >= mcBatchCap {
		o.flushLazy(c, b)
	}
}

// RegisterRoot pins the new tree (a pin-ladder step joins the lazy
// buffer when one is open).
func (o *Virtual) RegisterRoot(c *hw.CPU, root hw.PFN) {
	o.callEnter(c)
	defer o.exit()
	if b := &o.lazy[c.ID]; b.depth > 0 {
		c.Charge(o.V.M.Costs.MulticallEnqueue)
		b.mc.AddPin(root)
		if b.mc.Len() >= mcBatchCap {
			o.flushLazy(c, b)
		}
		return
	}
	if err := o.V.HypPinTable(c, o.D, root); err != nil {
		panic(fmt.Sprintf("vo: pin root: %v", err))
	}
}

// ReleaseRoot unpins a retired tree.
func (o *Virtual) ReleaseRoot(c *hw.CPU, root hw.PFN) {
	o.callEnter(c)
	defer o.exit()
	if b := &o.lazy[c.ID]; b.depth > 0 {
		c.Charge(o.V.M.Costs.MulticallEnqueue)
		b.mc.AddUnpin(root)
		if b.mc.Len() >= mcBatchCap {
			o.flushLazy(c, b)
		}
		return
	}
	if err := o.V.HypUnpinTable(c, o.D, root); err != nil {
		panic(fmt.Sprintf("vo: unpin root: %v", err))
	}
}

// FlushTLB flushes via the VMM. A TLB flush is a batch boundary: in a
// lazy section the flush request joins the pending multicall (where the
// VMM coalesces it with any other flush in the batch) and the buffer
// drains immediately, so no read after FlushTLB can observe either a
// stale translation or an unapplied deferred store.
func (o *Virtual) FlushTLB(c *hw.CPU) {
	o.callEnter(c)
	defer o.exit()
	if b := &o.lazy[c.ID]; b.depth > 0 {
		c.Charge(o.V.M.Costs.MulticallEnqueue)
		b.mc.AddTLBFlush()
		o.flushLazy(c, b)
		return
	}
	o.V.HypTLBFlush(c, o.D)
}

// InvalidatePage invalidates via the VMM (deferred into the batch in a
// lazy section, as Xen batches MMUEXT_INVLPG_LOCAL).
func (o *Virtual) InvalidatePage(c *hw.CPU, va hw.VirtAddr) {
	o.callEnter(c)
	defer o.exit()
	if b := &o.lazy[c.ID]; b.depth > 0 {
		c.Charge(o.V.M.Costs.MulticallEnqueue)
		b.mc.AddInvlpg(va)
		if b.mc.Len() >= mcBatchCap {
			o.flushLazy(c, b)
		}
		return
	}
	o.V.HypInvlpg(c, o.D, va)
}

// BeginLazyMMU opens a lazy-MMU section on c. The outermost Begin takes
// an operation reference that is held until the matching EndLazyMMU, so
// a mode switch defers while a batch could be pending.
func (o *Virtual) BeginLazyMMU(c *hw.CPU) {
	b := &o.lazy[c.ID]
	if b.depth == 0 {
		o.callEnter(c)
	}
	b.depth++
}

// EndLazyMMU closes the section, draining the buffer. Every End is a
// boundary (nested sections flush on their own exit too, as Linux's
// arch_leave_lazy_mmu_mode does).
func (o *Virtual) EndLazyMMU(c *hw.CPU) {
	b := &o.lazy[c.ID]
	if b.depth <= 0 {
		panic("vo: EndLazyMMU without matching BeginLazyMMU")
	}
	o.flushLazy(c, b)
	b.depth--
	if b.depth == 0 {
		o.exit()
	}
}

// FlushLazyMMU drains the pending buffer without closing the section —
// the read barrier a caller must issue before observing state a
// deferred operation targets.
func (o *Virtual) FlushLazyMMU(c *hw.CPU) {
	b := &o.lazy[c.ID]
	if b.depth > 0 {
		o.flushLazy(c, b)
	}
}

// flushLazy drains b in one multicall.
func (o *Virtual) flushLazy(c *hw.CPU, b *lazyBuf) {
	if b.mc.Len() == 0 {
		return
	}
	err := o.V.HypMulticall(c, o.D, &b.mc)
	b.mc.Reset()
	if err != nil {
		panic(fmt.Sprintf("vo: lazy-mmu flush: %v", err))
	}
}

var _ Object = (*Virtual)(nil)
