package xen

import (
	"fmt"

	"repro/internal/hw"
)

// The multicall interface (Xen's HYPERVISOR_multicall): a guest hands
// the VMM a heterogeneous list of operations and pays the world switch
// and hypercall base cost ONCE for the whole batch, plus a small
// per-op dispatch cost inside the VMM. This is Xen's real defense
// against the hypercall tax on PTE-write storms — fork's page-table
// copy, exec's teardown/rebuild, an attach's pin ladder — and the
// substrate for vo.Virtual's lazy-MMU batching (the Linux xen_mc_batch
// pattern; see internal/vo).
//
// Flush deferral: a batch may contain any number of MCTLBFlush
// requests, but the VMM coalesces them to AT MOST ONE hardware flush,
// executed after the last op of the batch. An MCNewBaseptr later in
// the batch cancels a pending flush — the CR3 load flushes the TLB
// anyway. The coalesced flush runs even when an op fails mid-batch, so
// a partially applied batch can never leave a stale translation live.

// MCOpKind discriminates one multicall operation.
type MCOpKind uint8

const (
	// MCUpdate is one mmu_update entry store (validate + apply).
	MCUpdate MCOpKind = iota
	// MCPin is MMUEXT_PIN_L2_TABLE for Root.
	MCPin
	// MCUnpin is MMUEXT_UNPIN_TABLE for Root.
	MCUnpin
	// MCNewBaseptr is MMUEXT_NEW_BASEPTR: install Root as the guest
	// page-directory base (auto-pinning it first, as Xen does). Clears
	// any pending deferred TLB flush — the CR3 load already flushes.
	MCNewBaseptr
	// MCStackSwitch is stack_switch plus the vcpu state swap of a
	// paravirtual context switch.
	MCStackSwitch
	// MCTLBFlush requests a local TLB flush, deferred and coalesced to
	// at most one per batch.
	MCTLBFlush
	// MCInvlpg invalidates the single translation for VA.
	MCInvlpg
	// MCSetTrapTable registers the guest exception handlers in Traps.
	MCSetTrapTable
	// MCBindVirqTimer binds the virtual timer interrupt to Timer.
	MCBindVirqTimer
	// MCEvtchnSend rings the event channel Port. Inside the batch it
	// only marks the remote port pending; the upcalls for every kicked
	// domain are delivered once, after the batch commits — this is how
	// a multi-queue frontend folds all its queue doorbells into one
	// VMM entry.
	MCEvtchnSend
)

// String names the op kind (error messages, traces).
func (k MCOpKind) String() string {
	switch k {
	case MCUpdate:
		return "mmu_update"
	case MCPin:
		return "pin"
	case MCUnpin:
		return "unpin"
	case MCNewBaseptr:
		return "new_baseptr"
	case MCStackSwitch:
		return "stack_switch"
	case MCTLBFlush:
		return "tlb_flush"
	case MCInvlpg:
		return "invlpg"
	case MCSetTrapTable:
		return "set_trap_table"
	case MCBindVirqTimer:
		return "bind_virq_timer"
	case MCEvtchnSend:
		return "evtchn_send"
	}
	return fmt.Sprintf("mc_op(%d)", uint8(k))
}

// MCOp is one operation in a multicall batch. Only the fields the Kind
// consumes are meaningful.
type MCOp struct {
	Kind   MCOpKind
	Update MMUUpdate     // MCUpdate
	Root   hw.PFN        // MCPin, MCUnpin, MCNewBaseptr
	VA     hw.VirtAddr   // MCInvlpg
	Traps  []TrapEntry   // MCSetTrapTable
	Timer  func(*hw.CPU) // MCBindVirqTimer
	Port   Port          // MCEvtchnSend
}

// Multicall is a reusable batch of operations. The zero value is ready
// to use; Reset keeps the backing array so a warmed batch enqueues and
// flushes without allocating.
type Multicall struct {
	Ops []MCOp

	// Applied is set by HypMulticall: the number of ops that executed
	// successfully. On success Applied == len(Ops); after a mid-batch
	// error it is the length of the applied prefix, which is what a
	// transactional caller must unwind.
	Applied int

	// kicked collects the distinct domains whose ports MCEvtchnSend
	// ops marked pending; HypMulticall delivers their upcalls after
	// the MMU lock drops (delivering under the lock would deadlock:
	// backend handlers take it again for grant maps).
	kicked []*Domain
}

// Reset empties the batch, keeping capacity.
func (m *Multicall) Reset() {
	for i := range m.Ops {
		m.Ops[i] = MCOp{} // drop Traps/Timer references
	}
	m.Ops = m.Ops[:0]
	m.Applied = 0
	for i := range m.kicked {
		m.kicked[i] = nil
	}
	m.kicked = m.kicked[:0]
}

// Len returns the number of enqueued ops.
func (m *Multicall) Len() int { return len(m.Ops) }

// AddUpdate enqueues one mmu_update entry store.
func (m *Multicall) AddUpdate(u MMUUpdate) {
	m.Ops = append(m.Ops, MCOp{Kind: MCUpdate, Update: u})
}

// AddPin enqueues MMUEXT_PIN_L2_TABLE.
func (m *Multicall) AddPin(root hw.PFN) {
	m.Ops = append(m.Ops, MCOp{Kind: MCPin, Root: root})
}

// AddUnpin enqueues MMUEXT_UNPIN_TABLE.
func (m *Multicall) AddUnpin(root hw.PFN) {
	m.Ops = append(m.Ops, MCOp{Kind: MCUnpin, Root: root})
}

// AddNewBaseptr enqueues MMUEXT_NEW_BASEPTR.
func (m *Multicall) AddNewBaseptr(root hw.PFN) {
	m.Ops = append(m.Ops, MCOp{Kind: MCNewBaseptr, Root: root})
}

// AddStackSwitch enqueues the context-switch stack/vcpu state swap.
func (m *Multicall) AddStackSwitch() {
	m.Ops = append(m.Ops, MCOp{Kind: MCStackSwitch})
}

// AddTLBFlush enqueues a (deferred, coalesced) local TLB flush.
func (m *Multicall) AddTLBFlush() {
	m.Ops = append(m.Ops, MCOp{Kind: MCTLBFlush})
}

// AddInvlpg enqueues a single-page invalidation.
func (m *Multicall) AddInvlpg(va hw.VirtAddr) {
	m.Ops = append(m.Ops, MCOp{Kind: MCInvlpg, VA: va})
}

// AddSetTrapTable enqueues guest trap-table registration.
func (m *Multicall) AddSetTrapTable(entries []TrapEntry) {
	m.Ops = append(m.Ops, MCOp{Kind: MCSetTrapTable, Traps: entries})
}

// AddBindVirqTimer enqueues the virtual-timer binding.
func (m *Multicall) AddBindVirqTimer(h func(*hw.CPU)) {
	m.Ops = append(m.Ops, MCOp{Kind: MCBindVirqTimer, Timer: h})
}

// AddEvtchnSend enqueues an event-channel doorbell on p.
func (m *Multicall) AddEvtchnSend(p Port) {
	m.Ops = append(m.Ops, MCOp{Kind: MCEvtchnSend, Port: p})
}

// HypMulticall executes the batch in one world switch: one
// WorldSwitch + HypercallBase for the entry, MulticallPerOp per op for
// the VMM's dispatch, and each op's own validation costs — instead of
// the per-op WorldSwitch + HypercallBase an unbatched stream pays.
//
// Execution stops at the first failing op; m.Applied reports the
// length of the successfully applied prefix either way. A deferred TLB
// flush requested by any applied op is executed even on the error
// path, before returning.
func (v *VMM) HypMulticall(c *hw.CPU, d *Domain, m *Multicall) error {
	m.Applied = 0
	m.kicked = m.kicked[:0]
	if len(m.Ops) == 0 {
		return nil
	}
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	v.Stats.Multicalls.Add(1)
	v.Stats.MulticallOps.Add(uint64(len(m.Ops)))
	if d != nil {
		d.Stats.Multicalls.Add(1)
		d.Stats.MulticallOps.Add(uint64(len(m.Ops)))
	}
	if fr.h != nil {
		fr.h.multicalls.Inc()
		fr.h.multicallOps.Add(uint64(len(m.Ops)))
		fr.h.col.Tracer.Instant(c.ID, c.Now(), "xen/multicall", uint64(len(m.Ops)))
	}
	v.lockMMU(c)
	err := v.multicallLocked(c, d, m)
	v.unlockMMU()
	// Deliver the upcalls for every domain an MCEvtchnSend kicked, now
	// that the MMU lock has dropped: the handlers are backend drains
	// that map grants, which takes the lock again.
	for _, rd := range m.kicked {
		v.maybeDeliverUpcall(c, rd)
	}
	return err
}

// multicallLocked dispatches the ops (MMU lock held, PL0).
func (v *VMM) multicallLocked(c *hw.CPU, d *Domain, m *Multicall) error {
	flushPending := false
	var err error
	for i := range m.Ops {
		op := &m.Ops[i]
		c.Charge(v.M.Costs.MulticallPerOp)
		switch op.Kind {
		case MCUpdate:
			err = v.applyUpdate(c, d, op.Update, true)
		case MCPin:
			err = v.pinTable(c, d, op.Root, true)
		case MCUnpin:
			err = v.unpinTable(c, d, op.Root, true)
		case MCNewBaseptr:
			if err = v.newBaseptrLocked(c, d, op.Root); err == nil {
				// The CR3 load flushed the TLB; a flush requested
				// earlier in the batch is already satisfied.
				flushPending = false
			}
		case MCStackSwitch:
			c.Charge(v.M.Costs.MemWrite * 2)    // stack switch bookkeeping
			c.Charge(v.M.Costs.VCPUStateSwitch) // segment/LDT/FPU state swap
		case MCTLBFlush:
			flushPending = true
		case MCInvlpg:
			c.TLB.Invalidate(hw.VPNOf(op.VA))
			c.Charge(v.M.Costs.PrivInsn)
		case MCSetTrapTable:
			for _, e := range op.Traps {
				c.Charge(v.M.Costs.MemWrite)
				d.TrapTable[e.Vector] = GuestGate{Present: true, Handler: e.Handler}
			}
		case MCBindVirqTimer:
			d.TimerHandler = op.Timer
		case MCEvtchnSend:
			err = v.evtchnMarkPending(c, d, op.Port, m)
		default:
			err = fmt.Errorf("xen: multicall: unknown op kind %d", op.Kind)
		}
		if err != nil {
			err = fmt.Errorf("xen: multicall op %d (%s): %w", i, op.Kind, err)
			break
		}
		m.Applied++
	}
	if flushPending {
		c.TLB.Flush()
		c.Charge(v.M.Costs.TLBFlush)
	}
	return err
}
