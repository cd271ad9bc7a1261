package vo

import (
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/xen"
)

// Object is the virtualization object's function table. Sensitive CPU
// operations manipulate privileged processor state; sensitive memory
// operations modify page tables. (Sensitive I/O operations live in the
// guest's driver layer, which is likewise swapped per mode — the split
// frontend/backend drivers of §5.2.)
type Object interface {
	// Name identifies the object instance ("direct", "native", "virtual").
	Name() string
	// Virtualized reports whether operations are mediated by a VMM.
	Virtualized() bool
	// Refs returns the number of in-flight operations; Mercury commits a
	// mode switch only when this is zero (§5.1.1).
	Refs() int64

	// --- sensitive CPU operations ---

	// SetInterrupts enables or disables interrupt delivery (cli/sti, or
	// the virtual interrupt flag under a VMM).
	SetInterrupts(c *hw.CPU, on bool)
	// LoadInterruptTable installs the kernel's trap handlers: directly in
	// the hardware IDT, or registered with the VMM for bouncing.
	LoadInterruptTable(c *hw.CPU, t *hw.IDT)
	// ArmTimer programs the next timer interrupt.
	ArmTimer(c *hw.CPU, deadline hw.Cycles)
	// ContextSwitch installs a new address-space root (and kernel stack).
	ContextSwitch(c *hw.CPU, root hw.PFN)

	// --- sensitive memory operations ---

	// WritePTE stores one page-table entry.
	WritePTE(c *hw.CPU, table hw.PFN, idx int, e hw.PTE)
	// WritePTEBatch stores many entries; under a VMM the whole batch
	// costs one world switch (mmu_update with multiple entries).
	WritePTEBatch(c *hw.CPU, batch []xen.MMUUpdate)
	// RegisterRoot announces a fully built page-directory tree before its
	// first use (pinning, under a VMM or active tracking).
	RegisterRoot(c *hw.CPU, root hw.PFN)
	// ReleaseRoot retires a tree after its last use.
	ReleaseRoot(c *hw.CPU, root hw.PFN)
	// FlushTLB flushes local translations.
	FlushTLB(c *hw.CPU)
	// InvalidatePage drops one local translation.
	InvalidatePage(c *hw.CPU, va hw.VirtAddr)

	// --- lazy-MMU batching (the Linux xen_mc_batch pattern) ---
	//
	// Between BeginLazyMMU and EndLazyMMU, MMU operations on this CPU
	// may be enqueued into a per-CPU multicall buffer instead of being
	// issued immediately; the buffer drains in one VMM entry at explicit
	// boundaries (TLB flush, context switch, EndLazyMMU, FlushLazyMMU).
	// Sections nest; only the virtual object actually batches — native
	// and direct execute eagerly, so the section is free there. The
	// caller must call FlushLazyMMU before reading any state a deferred
	// operation could leave stale (e.g. a just-written page-table
	// entry).

	// BeginLazyMMU opens a lazy-MMU section on c.
	BeginLazyMMU(c *hw.CPU)
	// EndLazyMMU closes the section, draining anything still enqueued.
	EndLazyMMU(c *hw.CPU)
	// FlushLazyMMU drains the buffer without closing the section.
	FlushLazyMMU(c *hw.CPU)
}

// Stats counts operations through a virtualization object. The fields
// are free-standing obs counters: when the owning machine carries a
// telemetry collector at construction time, the constructors register
// these same objects into its registry, so Stats readers and the
// metrics exporters observe one shared count — a single counting path,
// no parallel bookkeeping. Each instance registers under its own
// identity: object name and machine name, plus the domain ID for a
// virtual object, so machines sharing a collector (a fleet) and the
// domains sharing a VMM (the driver domain and a hosted domU) each
// export their own series.
type Stats struct {
	Calls     *obs.Counter
	PTEWrites *obs.Counter
}

// newStats builds the counters for one object instance, adopting them
// into m's registry when a collector is installed. extra labels further
// distinguish instances on one machine.
func newStats(m *hw.Machine, object string, extra ...obs.Label) Stats {
	s := Stats{Calls: obs.NewCounter(), PTEWrites: obs.NewCounter()}
	if col := m.Telemetry(); col != nil {
		labels := append([]obs.Label{obs.L("object", object), obs.L("machine", m.Name)}, extra...)
		col.Registry.RegisterCounter(s.Calls, "vo", "calls_total", labels...)
		col.Registry.RegisterCounter(s.PTEWrites, "vo", "pte_writes_total", labels...)
	}
	return s
}

// refcount implements the entry/exit reference counting shared by the
// Mercury objects. Operations are non-blocking and short (§5.1.1), so
// the count is almost always observed at zero.
type refcount struct {
	n atomic.Int64
}

func (r *refcount) enter() { r.n.Add(1) }
func (r *refcount) exit()  { r.n.Add(-1) }

// Refs returns the number of in-flight operations.
func (r *refcount) Refs() int64 { return r.n.Load() }

// Hold takes a reference from outside any operation, modelling a
// sensitive section that never drains (a wedged driver, a kernel bug).
// Fault-injection only: a held object defers every mode switch until
// Unhold.
func (r *refcount) Hold() { r.n.Add(1) }

// Unhold releases a Hold reference.
func (r *refcount) Unhold() { r.n.Add(-1) }
