package xen

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/obs"
)

// VMM is the hypervisor. In the always-on configurations (X-0, X-U) it
// boots first, owns the hardware, and never releases it. Under Mercury it
// is *pre-cached*: built and warmed at machine boot (§4.1), holding its
// reserved memory and data structures, but inactive — the hardware IDT
// and the frame accounting belong to the native OS until a mode switch
// activates it.
type VMM struct {
	M *hw.Machine

	// Active is true while the VMM owns the hardware.
	Active bool

	// FT is the per-frame accounting table (stale while inactive).
	FT *FrameTable

	Domains map[DomID]*Domain

	// IDT/GDT are the VMM's own descriptor tables, installed in hardware
	// while active.
	IDT *hw.IDT
	GDT *hw.GDT

	// Reserved is the VMM's own memory footprint, carved off at boot.
	Reserved *hw.FrameAllocator

	// Store is the control-plane registry (xenstore) split drivers
	// negotiate through.
	Store *XenStore

	// sched is the credit-weight domain scheduler state.
	sched DomSched

	// ShadowMode selects shadow paging instead of direct paging
	// (§3.2.2): hardware runs on VMM-maintained translated copies of
	// the guest tables. Direct mode is the default (and the paper's
	// choice for Mercury).
	ShadowMode bool
	shadows    map[DomID]*shadowState

	// cur is the per-physical-CPU stack of domains being executed; the
	// top is the current domain on that CPU.
	cur [][]*Domain

	// mmuMu serializes frame-table mutation (validation, pinning,
	// shadow maintenance) across CPUs, as Xen's per-domain page lock
	// does. Waiters spin with their clocks advancing (see lockMMU).
	mmuMu sync.Mutex

	// injectPinFails makes the next N table pins fail with a transient
	// error (fault injection: a hypercall that fails mid-switch).
	injectPinFails atomic.Int32

	// Domctl fault injection: the next N pause/unpause/destroy
	// hypercalls fail with a transient error, so the migration
	// transaction's rollback ladder can be exercised at every rung.
	injectPauseFails   atomic.Int32
	injectUnpauseFails atomic.Int32
	injectDestroyFails atomic.Int32

	// journal is the dirty-frame journal (nil unless Mercury selects the
	// journal tracking policy; see journal.go).
	journal *DirtyJournal

	// mergeCells/mergeOrder/mergeEpoch are the parallel recompute's
	// reusable merge scratch (guarded by mmuMu; see
	// recompute_parallel.go). Epoch-stamped per-frame cells replace the
	// per-call maps so the merge allocates nothing after warm-up.
	mergeCells []mergeCell
	mergeOrder []hw.PFN
	mergeEpoch uint64

	nextDomID  DomID
	consoleLog []string

	Stats VMMStats

	// obsCache holds pre-resolved registry handles for the installed
	// collector so the hypercall hot path skips map lookups.
	obsCache atomic.Pointer[vmmObs]
}

// vmmObs caches the VMM's telemetry handles for one collector.
type vmmObs struct {
	col            *obs.Collector
	hypercalls     *obs.Counter
	hypercallCyc   *obs.Histogram
	multicalls     *obs.Counter
	multicallOps   *obs.Counter
	domSwitches    *obs.Counter
	faultBounces   *obs.Counter
	faultBounceCyc *obs.Histogram
	eventsSent     *obs.Counter
	schedSlices    *obs.Counter
	schedBudget    *obs.Histogram
	blkEvents      *obs.Counter
	blkRequests    *obs.Counter
	netTxPackets   *obs.Counter
	netRxPackets   *obs.Counter
	ringKicks      *obs.Counter
	ringSuppressed *obs.Counter
	ringBurst      *obs.Histogram
	ringDepth      *obs.Histogram
	grantBatches   *obs.Counter
	grantBatchRefs *obs.Counter
}

// tel returns the cached telemetry handles, or nil when no collector
// is installed. The disabled path is a single atomic load.
func (v *VMM) tel() *vmmObs {
	col := v.M.Telemetry()
	if col == nil {
		return nil
	}
	h := v.obsCache.Load()
	if h == nil || h.col != col {
		r := col.Registry
		h = &vmmObs{
			col:            col,
			hypercalls:     r.Counter("xen", "hypercalls_total"),
			hypercallCyc:   r.Histogram("xen", "hypercall_cycles"),
			multicalls:     r.Counter("xen", "multicalls_total"),
			multicallOps:   r.Counter("xen", "multicall_ops_total"),
			domSwitches:    r.Counter("xen", "dom_switches_total"),
			faultBounces:   r.Counter("xen", "fault_bounces_total"),
			faultBounceCyc: r.Histogram("xen", "fault_bounce_cycles"),
			eventsSent:     r.Counter("xen", "events_sent_total"),
			schedSlices:    r.Counter("xen", "sched_slices_total"),
			schedBudget:    r.Histogram("xen", "sched_slice_budget_cycles"),
			blkEvents:      r.Counter("xen", "backend_events_total", obs.L("dev", "blk")),
			blkRequests:    r.Counter("xen", "backend_requests_total", obs.L("dev", "blk")),
			netTxPackets:   r.Counter("xen", "backend_packets_total", obs.L("dev", "net"), obs.L("dir", "tx")),
			netRxPackets:   r.Counter("xen", "backend_packets_total", obs.L("dev", "net"), obs.L("dir", "rx")),
			ringKicks:      r.Counter("xen", "ring_doorbells_total"),
			ringSuppressed: r.Counter("xen", "ring_doorbells_suppressed_total"),
			ringBurst:      r.Histogram("xen", "ring_burst_requests"),
			ringDepth:      r.Histogram("xen", "ring_depth"),
			grantBatches:   r.Counter("xen", "grant_map_batches_total"),
			grantBatchRefs: r.Counter("xen", "grant_map_batch_refs_total"),
		}
		v.obsCache.Store(h)
	}
	return h
}

// traceInstant records a point event under the span open on c (no-op
// without a collector).
func (v *VMM) traceInstant(c *hw.CPU, name string, arg uint64) {
	if h := v.tel(); h != nil {
		h.col.Tracer.Instant(c.ID, c.Now(), name, arg)
	}
}

// NoteDoorbell feeds the ring-doorbell instruments: one event-index
// notify decision from either end of a datapath ring (sent means the
// doorbell was rung; otherwise suppression elided it). Frontends
// outside this package report their decisions through it.
func (v *VMM) NoteDoorbell(sent bool) {
	h := v.tel()
	if h == nil {
		return
	}
	if sent {
		h.ringKicks.Inc()
	} else {
		h.ringSuppressed.Inc()
	}
}

// VMMStats counts hypervisor-level events. Atomic: hypercalls arrive
// concurrently from every CPU.
type VMMStats struct {
	Hypercalls    atomic.Uint64
	Multicalls    atomic.Uint64 // multicall batches (each also counts as one hypercall)
	MulticallOps  atomic.Uint64 // ops carried inside multicall batches
	DomSwitches   atomic.Uint64
	FaultsHandled atomic.Uint64
	Activations   atomic.Uint64
	Deactivations atomic.Uint64

	// RecomputeFallbacks counts parallel recomputes that detected a
	// cross-shard conflict and redid the walk serially.
	RecomputeFallbacks atomic.Uint64
}

// ReservedFrames is the pre-cached VMM's footprint: 16 MB worth of
// frames, standing in for Xen's 64 MB virtual reservation with a smaller
// resident set ("a VMM occupies only a reasonably small chunk of memory",
// §4.1).
const ReservedFrames = (16 << 20) / hw.PageSize

// Boot constructs the VMM on m, carving its reserved footprint out of
// the machine's frame allocator and preparing (warming) every internal
// structure. It does NOT take over the hardware; call Activate for that.
func Boot(m *hw.Machine) (*VMM, error) {
	res, err := m.Frames.Split(ReservedFrames)
	if err != nil {
		return nil, fmt.Errorf("xen: reserving VMM memory: %w", err)
	}
	v := &VMM{
		M:        m,
		FT:       NewFrameTable(m.Mem),
		Domains:  make(map[DomID]*Domain),
		Reserved: res,
		Store:    NewXenStore(),
		cur:      make([][]*Domain, len(m.CPUs)),
	}
	lo, hi := res.Range()
	for pfn := lo; pfn < hi; pfn++ {
		v.FT.SetOwner(pfn, DomVMM)
	}
	v.GDT = hw.NewGDT("vmm", hw.PL1) // guests run deprivileged at PL1
	v.IDT = hw.NewIDT("vmm")
	v.installTrapHandlers()
	return v, nil
}

// installTrapHandlers populates the VMM IDT: guest-bound exceptions are
// bounced through the current domain's trap table; device lines are
// forwarded to the driver domain as events.
func (v *VMM) installTrapHandlers() {
	v.IDT.Set(hw.VecPageFault, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) {
			v.Stats.FaultsHandled.Add(1)
			d := v.Current(c)
			if d == nil {
				panic(fmt.Sprintf("xen: page fault at %#x with no current domain", f.Addr))
			}
			d.bounce(c, f)
		}})
	v.IDT.Set(hw.VecGP, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) {
			d := v.Current(c)
			if d != nil && d.TrapTable[hw.VecGP].Present {
				d.bounce(c, f)
				return
			}
			panic(&hw.GPError{Reason: "unhandled #GP in VMM context"})
		}})
	v.IDT.Set(hw.VecTimer, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) {
			// Virtual timer tick for the current domain, then weighted
			// background slices for the other runnable domains.
			d := v.Current(c)
			if d != nil && d.TimerHandler != nil {
				c.Charge(v.M.Costs.EventDeliver)
				prev := c.SetMode(hw.PL1)
				d.TimerHandler(c)
				c.SetMode(prev)
			}
			v.scheduleSlices(c, v.M.Hz/100)
		}})
	forward := func(line int) func(c *hw.CPU, f *hw.TrapFrame) {
		return func(c *hw.CPU, f *hw.TrapFrame) {
			// Physical device interrupt: forward to the driver domain's
			// registered handler for this vector.
			d := v.DriverDomain()
			if d == nil {
				return
			}
			g := d.TrapTable[f.Vector]
			if !g.Present {
				return
			}
			c.Charge(v.M.Costs.EventDeliver)
			run := func() {
				prev := c.SetMode(hw.PL1)
				g.Handler(c, f)
				c.SetMode(prev)
			}
			if v.Current(c) == d {
				run() // driver domain is already running: direct upcall
			} else {
				v.runInDomain(c, d, run)
			}
		}
	}
	v.IDT.Set(hw.VecDisk, hw.Gate{Present: true, Target: hw.PL0, Handler: forward(hw.IRQLineDisk)})
	v.IDT.Set(hw.VecNIC, hw.Gate{Present: true, Target: hw.PL0, Handler: forward(hw.IRQLineNIC)})
}

// SetGate lets Mercury install extra vectors in the VMM IDT (the
// mode-switch interrupts must be reachable from virtual mode too).
func (v *VMM) SetGate(vector int, g hw.Gate) { v.IDT.Set(vector, g) }

// Activate makes the VMM take over the hardware on cpu: its descriptor
// tables are loaded and it becomes the most-privileged software. The
// caller (Mercury's state-reloading function, or the Xen boot path) must
// already have frame accounting in a valid state.
// InjectPinFailures makes the next n table pins fail with a transient
// error; n = 0 clears any outstanding injection. Dependability testing
// only: this is how campaigns exercise the failure-resistant switch's
// rollback path without corrupting real state.
func (v *VMM) InjectPinFailures(n int32) { v.injectPinFails.Store(n) }

// InjectPauseFailures makes the next n HypDomctlPause calls fail with a
// transient error; n = 0 clears any outstanding injection.
func (v *VMM) InjectPauseFailures(n int32) { v.injectPauseFails.Store(n) }

// InjectUnpauseFailures makes the next n HypDomctlUnpause calls fail
// with a transient error; n = 0 clears any outstanding injection.
func (v *VMM) InjectUnpauseFailures(n int32) { v.injectUnpauseFails.Store(n) }

// InjectDestroyFailures makes the next n HypDomctlDestroy calls fail
// with a transient error; n = 0 clears any outstanding injection.
func (v *VMM) InjectDestroyFailures(n int32) { v.injectDestroyFails.Store(n) }

// takeInjected consumes one pending injected failure from ctr,
// reporting whether the calling hypercall should fail. The CAS loop
// keeps concurrent consumers from driving the count negative.
func takeInjected(ctr *atomic.Int32) bool {
	for {
		n := ctr.Load()
		if n <= 0 {
			return false
		}
		if ctr.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func (v *VMM) Activate(c *hw.CPU) {
	v.Stats.Activations.Add(1)
	v.Active = true
	c.Lgdt(v.GDT)
	c.Lidt(v.IDT)
}

// Deactivate releases the hardware (Mercury detaching the VMM). The
// frame table goes stale at this instant.
func (v *VMM) Deactivate(c *hw.CPU) {
	v.Stats.Deactivations.Add(1)
	v.Active = false
}

// CreateDomain builds a new domain with nframes of memory taken from the
// machine's general allocator, owned by the new domain.
func (v *VMM) CreateDomain(name string, nframes hw.PFN, privileged bool) (*Domain, error) {
	id := v.nextDomID
	v.nextDomID++
	lo, hi := v.M.Frames.Range()
	_ = lo
	_ = hi
	part, err := v.M.Frames.Split(nframes)
	if err != nil {
		return nil, fmt.Errorf("xen: allocating dom%d memory: %w", id, err)
	}
	d := &Domain{
		ID:          id,
		Name:        name,
		VMM:         v,
		Privileged:  privileged,
		Frames:      part,
		pinnedRoots: make(map[hw.PFN]bool),
	}
	d.VCPUs = []*VCPU{newVCPU(d)}
	plo, phi := part.Range()
	for pfn := plo; pfn < phi; pfn++ {
		v.FT.SetOwner(pfn, id)
	}
	v.Domains[id] = d
	return d, nil
}

// AdoptDomain registers an existing OS (with its already-owned frame
// allocator) as a domain — the self-virtualization path: the running
// native OS becomes the driver domain of the freshly activated VMM.
func (v *VMM) AdoptDomain(name string, frames *hw.FrameAllocator, privileged bool) *Domain {
	id := v.nextDomID
	v.nextDomID++
	d := &Domain{
		ID:          id,
		Name:        name,
		VMM:         v,
		Privileged:  privileged,
		Frames:      frames,
		pinnedRoots: make(map[hw.PFN]bool),
	}
	d.VCPUs = []*VCPU{newVCPU(d)}
	lo, hi := frames.Range()
	for pfn := lo; pfn < hi; pfn++ {
		v.FT.SetOwner(pfn, id)
	}
	v.Domains[id] = d
	return d
}

// DestroyDomain tears a domain down and returns its info.
func (v *VMM) DestroyDomain(id DomID) error {
	d, ok := v.Domains[id]
	if !ok {
		return fmt.Errorf("xen: destroying nonexistent dom%d", id)
	}
	d.State = DomShutdown
	delete(v.Domains, id)
	return nil
}

// DriverDomain returns the privileged domain (nil if none).
func (v *VMM) DriverDomain() *Domain {
	for _, d := range v.Domains {
		if d.Privileged {
			return d
		}
	}
	return nil
}

// Current returns the domain executing on c, if any.
func (v *VMM) Current(c *hw.CPU) *Domain {
	st := v.cur[c.ID]
	if len(st) == 0 {
		return nil
	}
	return st[len(st)-1]
}

// onStack reports whether d is anywhere on c's dispatch stack.
func (v *VMM) onStack(c *hw.CPU, d *Domain) bool {
	for _, e := range v.cur[c.ID] {
		if e == d {
			return true
		}
	}
	return false
}

// SetCurrent establishes d as the domain running on c without charging a
// switch (used at boot and by Mercury when the adopted OS becomes
// current).
func (v *VMM) SetCurrent(c *hw.CPU, d *Domain) {
	v.cur[c.ID] = v.cur[c.ID][:0]
	if d != nil {
		v.cur[c.ID] = append(v.cur[c.ID], d)
	}
}

// RunInDomain executes fn with d current on c, charging a domain switch
// in and out — used by wiring code that must run driver-domain work on
// behalf of another domain (e.g., pumping the physical NIC).
func (v *VMM) RunInDomain(c *hw.CPU, d *Domain, fn func()) {
	v.runInDomain(c, d, fn)
}

// runInDomain executes fn with d current on c, charging a domain switch
// in and out — the uniprocessor Xen pattern for backend processing.
func (v *VMM) runInDomain(c *hw.CPU, d *Domain, fn func()) {
	var sp obs.SpanRef
	if h := v.tel(); h != nil {
		h.domSwitches.Add(2)
		sp = obs.Begin(h.col, c.ID, c.Now(), "xen/run-in-domain")
	}
	// The target domain is not running: besides the context switch, the
	// initiator eats the VMM scheduler's dispatch latency.
	c.Charge(v.M.Costs.DomSchedLatency)
	c.Charge(v.M.Costs.DomSwitch)
	v.Stats.DomSwitches.Add(1)
	v.cur[c.ID] = append(v.cur[c.ID], d)
	fn()
	v.cur[c.ID] = v.cur[c.ID][:len(v.cur[c.ID])-1]
	c.Charge(v.M.Costs.DomSwitch)
	v.Stats.DomSwitches.Add(1)
	sp.EndArg(c.Now(), uint64(d.ID))
}

// lockMMU serializes page-table validation across CPUs. The wait keeps
// the caller's clock advancing so the cross-CPU lockstep cannot wedge
// against a frozen waiter.
func (v *VMM) lockMMU(c *hw.CPU) {
	for !v.mmuMu.TryLock() {
		c.Charge(60)
		runtime.Gosched()
	}
}

// unlockMMU releases the page-table lock.
func (v *VMM) unlockMMU() { v.mmuMu.Unlock() }

// hcFrame is the state enter hands to exit. It lives on the caller's
// stack, so the prologue/epilogue pair performs no heap allocation.
type hcFrame struct {
	prev  uint8
	start hw.Cycles
	h     *vmmObs
	sp    obs.SpanRef
}

// enter is the hypercall prologue: a world switch into the VMM at PL0.
// Usage:
//
//	fr := v.enter(c, d)
//	defer v.exit(c, d, fr)
//
// The plain defer (no closure) is open-coded by the compiler, so the
// pair never touches the heap.
//
// With a collector installed, enter opens an "xen/hypercall" span under
// whatever span is open on this CPU — a mode-switch phase, a backend
// event, a benchmark loop — so the instants the body records (pins,
// event sends) nest under their hypercall.
func (v *VMM) enter(c *hw.CPU, d *Domain) hcFrame {
	fr := hcFrame{h: v.tel()}
	if fr.h != nil {
		fr.start = c.Now()
		fr.sp = fr.h.col.Tracer.Begin(c.ID, fr.start, "xen/hypercall")
	}
	c.Charge(v.M.Costs.WorldSwitch + v.M.Costs.HypercallBase)
	v.Stats.Hypercalls.Add(1)
	if d != nil {
		d.Stats.Hypercalls.Add(1)
	}
	fr.prev = c.SetMode(hw.PL0)
	return fr
}

// exit is the hypercall epilogue. With a collector installed it records
// the hypercall's full latency (prologue charge through body) into the
// cycle histogram and closes the span with the caller's domain ID.
func (v *VMM) exit(c *hw.CPU, d *Domain, fr hcFrame) {
	c.SetMode(fr.prev)
	if fr.h == nil {
		return
	}
	end := c.Now()
	fr.h.hypercalls.Inc()
	fr.h.hypercallCyc.Observe(end - fr.start)
	id := uint64(0xFFFE)
	if d != nil {
		id = uint64(d.ID)
	}
	fr.sp.EndArg(end, id)
}
