package xen

import (
	"fmt"

	"repro/internal/hw"
)

// Direct-mode paging (§3.2.2): guest page tables are installed in the
// hardware MMU directly, but every store to them must be validated by the
// VMM. Validation maintains the frame type system: a frame referenced as
// a page table (FrameL1/FrameL2) may never simultaneously be mapped
// writable, so a guest can never forge a mapping. Reference counting
// follows Xen's get_page_type/put_page_type discipline:
//
//   - each present PDE holds one typed FrameL1 ref and one existence ref
//     on the page-table frame it points to;
//   - each present PTE holds one existence ref on the data frame, plus
//     one typed FrameWritable ref when the mapping is writable;
//   - the first typed page-table ref on a frame triggers a full scan of
//     its entries (the expensive part of pinning, and of Mercury's
//     recompute-on-switch, §5.1.2).

// MMUUpdate is one entry store request.
type MMUUpdate struct {
	Table hw.PFN
	Index int
	New   hw.PTE
}

// getTypeFresh takes a typed ref and reports whether this was the 0->1
// transition (which obliges the caller to validate contents).
func (v *VMM) getTypeFresh(pfn hw.PFN, want FrameType) (bool, error) {
	fresh := v.FT.Get(pfn).TypeCount == 0
	if err := v.FT.GetType(pfn, want); err != nil {
		return false, err
	}
	return fresh, nil
}

// chargeOpt charges c only when charging is enabled; the active-tracking
// mirror path (native mode, §5.1.2 "first approach") uses the same
// validation logic with its own small per-op cost charged by the caller.
func chargeOpt(c *hw.CPU, on bool, n hw.Cycles) {
	if on {
		c.Charge(n)
	}
}

// validateL1 takes a typed L1 ref on pt, scanning and referencing its
// entries if this is the first typed ref.
func (v *VMM) validateL1(c *hw.CPU, d *Domain, pt hw.PFN, charge bool) error {
	fresh, err := v.getTypeFresh(pt, FrameL1)
	if err != nil {
		return err
	}
	if !fresh {
		return nil
	}
	chargeOpt(c, charge, v.M.Costs.FrameValidate)
	for i := 0; i < hw.PTEntries; i++ {
		pte := hw.ReadPTE(v.M.Mem, pt, i)
		if !pte.Present() {
			continue
		}
		chargeOpt(c, charge, v.M.Costs.PTValidatePin)
		if err := v.refMapping(d, pte); err != nil {
			// Roll back what we validated so far.
			for j := 0; j < i; j++ {
				if p := hw.ReadPTE(v.M.Mem, pt, j); p.Present() {
					v.unrefMapping(p)
				}
			}
			v.FT.PutType(pt)
			return fmt.Errorf("xen: validating L1 frame %d entry %d: %w", pt, i, err)
		}
	}
	return nil
}

// devalidateL1 drops a typed L1 ref, releasing entry refs when it was the
// last one.
func (v *VMM) devalidateL1(c *hw.CPU, pt hw.PFN, charge bool) {
	last := v.FT.Get(pt).TypeCount == 1
	if last {
		for i := 0; i < hw.PTEntries; i++ {
			pte := hw.ReadPTE(v.M.Mem, pt, i)
			if pte.Present() {
				chargeOpt(c, charge, v.M.Costs.FrameRelease)
				v.unrefMapping(pte)
			}
		}
	}
	v.FT.PutType(pt)
}

// refMapping takes the refs a present leaf entry holds on its target.
func (v *VMM) refMapping(d *Domain, pte hw.PTE) error {
	pfn := pte.Frame()
	if !v.M.Mem.Valid(pfn) {
		return fmt.Errorf("xen: mapping of nonexistent frame %d", pfn)
	}
	fi := v.FT.Get(pfn)
	if d != nil && fi.Owner != d.ID && fi.Owner != DomVMM {
		// Foreign frames are only reachable via grants; the backend path
		// maps those through GrantMap, not page tables.
		return fmt.Errorf("xen: dom%d mapping foreign frame %d (owner dom%d)",
			d.ID, pfn, fi.Owner)
	}
	if pte.Writable() {
		if err := v.FT.GetType(pfn, FrameWritable); err != nil {
			return err
		}
	}
	v.FT.GetRef(pfn)
	return nil
}

// unrefMapping drops the refs a present leaf entry held.
func (v *VMM) unrefMapping(pte hw.PTE) {
	pfn := pte.Frame()
	if pte.Writable() {
		v.FT.PutType(pfn)
	}
	v.FT.PutRef(pfn)
}

// validateL2 takes a typed L2 ref on root, validating referenced L1
// tables on the first ref.
func (v *VMM) validateL2(c *hw.CPU, d *Domain, root hw.PFN, charge bool) error {
	fresh, err := v.getTypeFresh(root, FrameL2)
	if err != nil {
		return err
	}
	if !fresh {
		return nil
	}
	chargeOpt(c, charge, v.M.Costs.FrameValidate)
	for i := 0; i < hw.PTEntries; i++ {
		pde := hw.ReadPTE(v.M.Mem, root, i)
		if !pde.Present() {
			continue
		}
		chargeOpt(c, charge, v.M.Costs.PTValidatePin)
		if err := v.validateL1(c, d, pde.Frame(), charge); err != nil {
			for j := 0; j < i; j++ {
				if p := hw.ReadPTE(v.M.Mem, root, j); p.Present() {
					v.devalidateL1(c, p.Frame(), false)
					v.FT.PutRef(p.Frame())
				}
			}
			v.FT.PutType(root)
			return err
		}
		v.FT.GetRef(pde.Frame())
	}
	return nil
}

// devalidateL2 drops a typed L2 ref.
func (v *VMM) devalidateL2(c *hw.CPU, root hw.PFN, charge bool) {
	last := v.FT.Get(root).TypeCount == 1
	if last {
		chargeOpt(c, charge, v.M.Costs.FrameRelease)
		for i := 0; i < hw.PTEntries; i++ {
			pde := hw.ReadPTE(v.M.Mem, root, i)
			if pde.Present() {
				v.devalidateL1(c, pde.Frame(), charge)
				v.FT.PutRef(pde.Frame())
			}
		}
	}
	v.FT.PutType(root)
}

// pinTable validates and pins a page-directory root (internal; shared by
// the hypercall and the adopt/recompute paths).
func (v *VMM) pinTable(c *hw.CPU, d *Domain, root hw.PFN, charge bool) error {
	if v.injectPinFails.Load() > 0 {
		v.injectPinFails.Add(-1)
		return fmt.Errorf("xen: injected transient failure pinning root %d", root)
	}
	if d.pinnedRoots[root] {
		return fmt.Errorf("xen: dom%d re-pinning root %d", d.ID, root)
	}
	if err := v.validateL2(c, d, root, charge); err != nil {
		return err
	}
	v.FT.GetRef(root)
	v.markPinned(root, true)
	v.traceInstant(c, "xen/pin", uint64(root))
	d.pinnedRoots[root] = true
	if v.ShadowMode {
		if _, err := v.BuildShadowTree(c, d, root); err != nil {
			return err
		}
	}
	return nil
}

// unpinTable reverses pinTable.
func (v *VMM) unpinTable(c *hw.CPU, d *Domain, root hw.PFN, charge bool) error {
	if !d.pinnedRoots[root] {
		return fmt.Errorf("xen: dom%d unpinning unknown root %d", d.ID, root)
	}
	delete(d.pinnedRoots, root)
	v.markPinned(root, false)
	v.traceInstant(c, "xen/unpin", uint64(root))
	if v.ShadowMode {
		v.DropShadowTree(c, d, root)
	}
	v.devalidateL2(c, root, charge)
	v.FT.PutRef(root)
	return nil
}

func (v *VMM) markPinned(root hw.PFN, on bool) {
	v.FT.setPinned(root, on)
}

// applyUpdate validates and applies one entry store (internal).
func (v *VMM) applyUpdate(c *hw.CPU, d *Domain, u MMUUpdate, charge bool) error {
	fi := v.FT.Get(u.Table)
	if fi.TypeCount == 0 || (fi.Type != FrameL1 && fi.Type != FrameL2) {
		return fmt.Errorf("xen: mmu_update to frame %d which is %s, not a page table",
			u.Table, fi.Type)
	}
	if d != nil && fi.Owner != d.ID {
		return fmt.Errorf("xen: dom%d updating foreign page table %d", d.ID, u.Table)
	}
	chargeOpt(c, charge, v.M.Costs.MMUUpdateEntry)
	old := hw.ReadPTE(v.M.Mem, u.Table, u.Index)

	switch fi.Type {
	case FrameL1:
		if u.New.Present() {
			if err := v.refMapping(d, u.New); err != nil {
				return err
			}
		}
		if old.Present() {
			v.unrefMapping(old)
		}
	case FrameL2:
		if u.New.Present() {
			if err := v.validateL1(c, d, u.New.Frame(), charge); err != nil {
				return err
			}
			v.FT.GetRef(u.New.Frame())
		}
		if old.Present() {
			v.devalidateL1(c, old.Frame(), charge)
			v.FT.PutRef(old.Frame())
		}
	}
	hw.WritePTE(v.M.Mem, u.Table, u.Index, u.New)
	if v.ShadowMode && d != nil {
		if err := v.syncShadowEntry(c, d, u); err != nil {
			return err
		}
	}
	if d != nil {
		d.Stats.MMUUpdates.Add(1)
	}
	return nil
}

// --- hypercalls ---

// HypMMUUpdate is the mmu_update hypercall: one world switch validates
// and applies a whole batch — the batching is what keeps paravirtual
// fork/exec within a small factor of native instead of paying a world
// switch per entry.
func (v *VMM) HypMMUUpdate(c *hw.CPU, d *Domain, batch []MMUUpdate) error {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	v.lockMMU(c)
	defer v.unlockMMU()
	for _, u := range batch {
		if err := v.applyUpdate(c, d, u, true); err != nil {
			return err
		}
	}
	return nil
}

// HypPinTable is MMUEXT_PIN_L2_TABLE: validate a tree and pin its root.
func (v *VMM) HypPinTable(c *hw.CPU, d *Domain, root hw.PFN) error {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	v.lockMMU(c)
	defer v.unlockMMU()
	return v.pinTable(c, d, root, true)
}

// HypUnpinTable is MMUEXT_UNPIN_TABLE.
func (v *VMM) HypUnpinTable(c *hw.CPU, d *Domain, root hw.PFN) error {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	v.lockMMU(c)
	defer v.unlockMMU()
	return v.unpinTable(c, d, root, true)
}

// newBaseptrLocked installs root as the guest's page-directory base
// (MMU lock held): auto-pin on first use as Xen does, then the
// privileged CR3 load. Shared by HypNewBaseptr, HypContextSwitch and
// the multicall dispatcher.
func (v *VMM) newBaseptrLocked(c *hw.CPU, d *Domain, root hw.PFN) error {
	if !d.pinnedRoots[root] {
		if err := v.pinTable(c, d, root, true); err != nil {
			return err
		}
	}
	hwRoot, err := v.HWRoot(c, d, root)
	if err != nil {
		return err
	}
	c.WriteCR3(hwRoot)
	d.VCPU0().SetCR3(root)
	return nil
}

// HypNewBaseptr is MMUEXT_NEW_BASEPTR: install a pinned root as the
// guest's page-directory base. The VMM performs the privileged CR3 load.
func (v *VMM) HypNewBaseptr(c *hw.CPU, d *Domain, root hw.PFN) error {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	v.lockMMU(c)
	defer v.unlockMMU()
	return v.newBaseptrLocked(c, d, root)
}

// HypContextSwitch is the paravirtual context-switch multicall:
// stack_switch plus MMUEXT_NEW_BASEPTR in one world switch, the way
// Xen-Linux batches its __switch_to path.
func (v *VMM) HypContextSwitch(c *hw.CPU, d *Domain, root hw.PFN) error {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	v.lockMMU(c)
	defer v.unlockMMU()
	c.Charge(v.M.Costs.MemWrite * 2)    // stack switch bookkeeping
	c.Charge(v.M.Costs.VCPUStateSwitch) // segment/LDT/FPU state swap
	return v.newBaseptrLocked(c, d, root)
}

// HypTLBFlush is MMUEXT_TLB_FLUSH_LOCAL.
func (v *VMM) HypTLBFlush(c *hw.CPU, d *Domain) {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	c.TLB.Flush()
	c.Charge(v.M.Costs.TLBFlush)
}

// HypInvlpg is MMUEXT_INVLPG_LOCAL.
func (v *VMM) HypInvlpg(c *hw.CPU, d *Domain, va hw.VirtAddr) {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	c.TLB.Invalidate(hw.VPNOf(va))
	c.Charge(v.M.Costs.PrivInsn)
}

// --- active tracking (the §5.1.2 "first approach" ablation) ---

// MirrorPTEWrite keeps the frame table in sync with a native-mode direct
// PTE store. The native OS calls it on every page-table write when the
// active-tracking policy is selected; the work costs a few cycles per
// store (the 2–3 % native overhead the paper measured) but makes the
// switch-time recompute unnecessary.
func (v *VMM) MirrorPTEWrite(c *hw.CPU, d *Domain, u MMUUpdate) error {
	c.Charge(v.M.Costs.MirrorUpdate)
	v.lockMMU(c)
	defer v.unlockMMU()
	return v.applyUpdate(c, d, u, false)
}

// MirrorPinRoot registers a new root under active tracking.
func (v *VMM) MirrorPinRoot(c *hw.CPU, d *Domain, root hw.PFN) error {
	c.Charge(v.M.Costs.MirrorUpdate)
	v.lockMMU(c)
	defer v.unlockMMU()
	return v.pinTable(c, d, root, false)
}

// MirrorUnpinRoot unregisters a root under active tracking.
func (v *VMM) MirrorUnpinRoot(c *hw.CPU, d *Domain, root hw.PFN) error {
	c.Charge(v.M.Costs.MirrorUpdate)
	v.lockMMU(c)
	defer v.unlockMMU()
	return v.unpinTable(c, d, root, false)
}

// --- Mercury attach/detach support ---

// RecomputeFrameInfo rebuilds the (stale) frame table for an adopted
// domain from scratch by scanning and pinning every supplied root. This
// is the paper's preferred "re-compute and synchronize during a mode
// switch" strategy and accounts for most of the 0.22 ms native->virtual
// switch time (§5.1.2, §7.4).
//
// The operation is transactional: if any root fails validation (the OS
// was in an inconsistent state, e.g. a page-table page reachable
// writable), every root pinned so far is unpinned again and the frame
// table is left exactly as before — the substrate for Mercury's
// failure-resistant mode switch.
func (v *VMM) RecomputeFrameInfo(c *hw.CPU, d *Domain, roots []hw.PFN) error {
	v.lockMMU(c)
	defer v.unlockMMU()
	return v.recomputeLocked(c, d, roots)
}

// recomputeLocked is the serial pin loop; the caller holds the MMU lock.
func (v *VMM) recomputeLocked(c *hw.CPU, d *Domain, roots []hw.PFN) error {
	var pinned []hw.PFN
	for _, r := range roots {
		if err := v.pinTable(c, d, r, true); err != nil {
			for _, p := range pinned {
				if uerr := v.unpinTable(c, d, p, false); uerr != nil {
					panic(fmt.Sprintf("xen: recompute rollback: %v", uerr))
				}
			}
			return fmt.Errorf("xen: recompute: %w", err)
		}
		pinned = append(pinned, r)
	}
	return nil
}

// ReleaseFrameInfo forgets the accounting for an adopted domain when the
// VMM detaches: cheap, which is why switching back to native mode takes
// only ~0.06 ms (§7.4).
func (v *VMM) ReleaseFrameInfo(c *hw.CPU, d *Domain) {
	v.lockMMU(c)
	defer v.unlockMMU()
	for root := range d.pinnedRoots {
		delete(d.pinnedRoots, root)
		v.markPinned(root, false)
		if v.ShadowMode {
			v.DropShadowTree(c, d, root)
		}
		v.devalidateL2(c, root, true)
		v.FT.PutRef(root)
	}
}

// EmulatePTEWrite is the trap-and-emulation path for a page-table store
// (§5.3: "non-performance-critical sensitive code is not included in a
// VO and relies instead on trap-and-emulation to commit the effect"):
// the deprivileged kernel's direct store to a read-only page-table page
// faults into the VMM, which decodes and validates it — dearer than an
// explicit hypercall, but requiring no kernel modification at the call
// site.
func (v *VMM) EmulatePTEWrite(c *hw.CPU, d *Domain, u MMUUpdate) error {
	// The faulting store: #PF entry, instruction decode, emulation.
	c.Charge(v.M.Costs.FaultEntry + v.M.Costs.WorldSwitch + v.M.Costs.FaultBounce)
	v.Stats.FaultsHandled.Add(1)
	if d != nil {
		d.Stats.FaultBounces.Add(1)
	}
	v.lockMMU(c)
	defer v.unlockMMU()
	prev := c.SetMode(hw.PL0)
	err := v.applyUpdate(c, d, u, true)
	c.SetMode(prev)
	c.Charge(v.M.Costs.FaultExit)
	return err
}
