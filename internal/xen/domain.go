package xen

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/hw"
)

// DomState is a domain's lifecycle state.
type DomState uint8

const (
	DomRunning DomState = iota
	DomPaused
	DomShutdown
)

// GuestGate is one entry of a guest's registered trap table: when the
// VMM owns the hardware IDT it bounces guest-bound traps through these
// handlers, running them at the guest's (deprivileged) level.
type GuestGate struct {
	Present bool
	Handler func(c *hw.CPU, f *hw.TrapFrame)
}

// VCPU is a domain's virtual CPU. The virtual interrupt flag is what
// the paravirtualized guest toggles with a cheap shared-memory write
// instead of cli/sti (which would trap at PL1). Fields are atomic: on
// SMP, several physical CPUs touch the vcpu state concurrently.
type VCPU struct {
	Dom *Domain
	ID  int

	vif atomic.Bool
	cr3 atomic.Uint32 // guest page-directory root currently installed
}

// VIF reads the virtual interrupt flag.
func (vc *VCPU) VIF() bool { return vc.vif.Load() }

// SetVIF writes the virtual interrupt flag.
func (vc *VCPU) SetVIF(on bool) { vc.vif.Store(on) }

// CR3 reads the recorded guest page-directory root.
func (vc *VCPU) CR3() hw.PFN { return hw.PFN(vc.cr3.Load()) }

// SetCR3 records the guest page-directory root.
func (vc *VCPU) SetCR3(root hw.PFN) { vc.cr3.Store(uint32(root)) }

// Domain is one guest under the VMM.
type Domain struct {
	ID         DomID
	Name       string
	VMM        *VMM
	Privileged bool // driver domain: direct device access, domctl rights
	State      DomState

	// Frames is the domain's physical memory partition.
	Frames *hw.FrameAllocator

	VCPUs []*VCPU

	// TrapTable holds the guest's registered exception handlers
	// (set_trap_table hypercall).
	TrapTable [hw.NumVectors]GuestGate

	// ports is the domain's event-channel table.
	ports []*channel

	// grants is the domain's grant table; grantFree recycles revoked
	// refs so GrantAccess stays O(1) on a fragmented table.
	grants    []*grantEntry
	grantFree []GrantRef

	// pinnedRoots tracks page-directory roots this domain has pinned.
	pinnedRoots map[hw.PFN]bool

	// TimerHandler receives the virtual timer tick (VIRQ_TIMER).
	TimerHandler func(c *hw.CPU)

	// BackgroundWork, when set, is the vcpu's compute function for a
	// passive domain: the VMM's credit scheduler invokes it with a
	// cycle budget each tick (see sched.go).
	BackgroundWork func(c *hw.CPU, budget hw.Cycles)

	Stats DomainStats
}

// DomainStats counts per-domain VMM interactions (atomic: multiple
// vcpus/CPUs update them concurrently).
type DomainStats struct {
	Hypercalls   atomic.Uint64
	Multicalls   atomic.Uint64 // multicall batches issued by this domain
	MulticallOps atomic.Uint64 // ops carried inside those batches
	MMUUpdates   atomic.Uint64
	FaultBounces atomic.Uint64
	EventsIn     atomic.Uint64
	EventsOut    atomic.Uint64
}

// newVCPU builds the boot vcpu with interrupts enabled.
func newVCPU(d *Domain) *VCPU {
	vc := &VCPU{Dom: d, ID: 0}
	vc.SetVIF(true)
	return vc
}

// VCPU0 returns the domain's boot vcpu.
func (d *Domain) VCPU0() *VCPU { return d.VCPUs[0] }

// SetTrapGate registers a guest handler for vector (part of
// set_trap_table).
func (d *Domain) SetTrapGate(vector int, h func(c *hw.CPU, f *hw.TrapFrame)) {
	d.TrapTable[vector] = GuestGate{Present: true, Handler: h}
}

// bounce delivers a trap into the guest's registered handler, charging
// the VMM-mediated fault cost and running the handler deprivileged.
func (d *Domain) bounce(c *hw.CPU, f *hw.TrapFrame) {
	g := d.TrapTable[f.Vector]
	if !g.Present {
		panic(fmt.Sprintf("xen: dom%d has no handler for vector %d (fatal guest fault)",
			d.ID, f.Vector))
	}
	h := d.VMM.tel()
	var start hw.Cycles
	if h != nil {
		start = c.Now()
	}
	c.Charge(d.VMM.M.Costs.FaultBounce)
	d.Stats.FaultBounces.Add(1)
	prev := c.SetMode(hw.PL1)
	g.Handler(c, f)
	c.SetMode(prev)
	if h != nil {
		end := c.Now()
		h.faultBounces.Inc()
		h.faultBounceCyc.Observe(end - start)
		h.col.Tracer.Complete(c.ID, start, end, "xen/fault-bounce", uint64(f.Vector))
	}
}

// HasPinned reports whether root is a pinned page-directory of d.
func (d *Domain) HasPinned(root hw.PFN) bool { return d.pinnedRoots[root] }

// PinnedRoots returns the pinned roots (for checkpoint/migration),
// sorted ascending: map iteration order must not leak into snapshot
// images, the repinRoots multicall pin order, or its journaled Applied
// prefix (the same nondeterminism class PR 3 fixed for LiveRoots).
func (d *Domain) PinnedRoots() []hw.PFN {
	out := make([]hw.PFN, 0, len(d.pinnedRoots))
	for r := range d.pinnedRoots {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
