package xen

import (
	"fmt"

	"repro/internal/hw"
)

// GrantRef names one grant-table entry of a domain.
type GrantRef int

// grantEntry records that a domain has granted another domain access to
// one of its frames. Split drivers grant the frames holding I/O buffers
// so the backend can map them instead of copying through the VMM.
type grantEntry struct {
	inUse    bool
	toDom    DomID
	pfn      hw.PFN
	readonly bool
	mapped   int
}

// GrantAccess publishes pfn to dom. Guest-local table write (real guests
// write their grant table page directly), so no hypercall cost. Freed
// refs are recycled through a free-list, so allocation is O(1) and the
// single MemWrite charge does not scale with table occupancy — a
// datapath granting from a fragmented table pays the same as from a
// fresh one.
func (d *Domain) GrantAccess(c *hw.CPU, to DomID, pfn hw.PFN, readonly bool) GrantRef {
	c.Charge(d.VMM.M.Costs.MemWrite)
	if n := len(d.grantFree); n > 0 {
		ref := d.grantFree[n-1]
		d.grantFree = d.grantFree[:n-1]
		*d.grants[ref] = grantEntry{inUse: true, toDom: to, pfn: pfn, readonly: readonly}
		return ref
	}
	d.grants = append(d.grants, &grantEntry{inUse: true, toDom: to, pfn: pfn, readonly: readonly})
	return GrantRef(len(d.grants) - 1)
}

// GrantEnd revokes a grant once unmapped and returns the ref to the
// free-list for O(1) reuse.
func (d *Domain) GrantEnd(c *hw.CPU, ref GrantRef) error {
	c.Charge(d.VMM.M.Costs.MemWrite)
	if int(ref) >= len(d.grants) || !d.grants[ref].inUse {
		return fmt.Errorf("xen: dom%d ending invalid grant %d", d.ID, ref)
	}
	if d.grants[ref].mapped != 0 {
		return fmt.Errorf("xen: dom%d grant %d still mapped", d.ID, ref)
	}
	d.grants[ref].inUse = false
	d.grantFree = append(d.grantFree, ref)
	return nil
}

// GrantMap gives the calling (backend) domain access to the frame behind
// (granterID, ref). It returns the frame and an unmap closure. This is
// the grant_table_op hypercall.
func (v *VMM) GrantMap(c *hw.CPU, d *Domain, granterID DomID, ref GrantRef) (hw.PFN, func(), error) {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	granter, ok := v.Domains[granterID]
	if !ok {
		return 0, nil, fmt.Errorf("xen: grant map from nonexistent dom%d", granterID)
	}
	if int(ref) >= len(granter.grants) {
		return 0, nil, fmt.Errorf("xen: dom%d has no grant %d", granterID, ref)
	}
	g := granter.grants[ref]
	if !g.inUse || g.toDom != d.ID {
		return 0, nil, fmt.Errorf("xen: dom%d grant %d not granted to dom%d",
			granterID, ref, d.ID)
	}
	c.Charge(v.M.Costs.GrantMap)
	v.lockMMU(c)
	v.FT.GetRef(g.pfn)
	g.mapped++
	v.unlockMMU()
	pfn := g.pfn
	unmapped := false
	return pfn, func() {
		if unmapped {
			return
		}
		unmapped = true
		v.lockMMU(c)
		g.mapped--
		v.FT.PutRef(pfn)
		v.unlockMMU()
	}, nil
}

// GrantMapBatch maps a burst of grants from one granter in a single
// grant_table_op: one VMM entry and one MMU lock acquisition amortized
// over the whole ring-slot burst, with the per-ref GrantMap work still
// charged. Returns the frames in ref order and a single idempotent
// unmap closure. Validation is all-or-nothing — any bad ref fails the
// batch with nothing mapped.
func (v *VMM) GrantMapBatch(c *hw.CPU, d *Domain, granterID DomID, refs []GrantRef) ([]hw.PFN, func(), error) {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	granter, ok := v.Domains[granterID]
	if !ok {
		return nil, nil, fmt.Errorf("xen: grant map from nonexistent dom%d", granterID)
	}
	entries := make([]*grantEntry, len(refs))
	pfns := make([]hw.PFN, len(refs))
	for i, ref := range refs {
		if int(ref) >= len(granter.grants) {
			return nil, nil, fmt.Errorf("xen: dom%d has no grant %d", granterID, ref)
		}
		g := granter.grants[ref]
		if !g.inUse || g.toDom != d.ID {
			return nil, nil, fmt.Errorf("xen: dom%d grant %d not granted to dom%d",
				granterID, ref, d.ID)
		}
		entries[i] = g
		pfns[i] = g.pfn
	}
	c.Charge(v.M.Costs.GrantMap * hw.Cycles(len(refs)))
	v.lockMMU(c)
	for _, g := range entries {
		v.FT.GetRef(g.pfn)
		g.mapped++
	}
	v.unlockMMU()
	if h := v.tel(); h != nil {
		h.grantBatches.Inc()
		h.grantBatchRefs.Add(uint64(len(refs)))
	}
	unmapped := false
	return pfns, func() {
		if unmapped {
			return
		}
		unmapped = true
		v.lockMMU(c)
		for i, g := range entries {
			g.mapped--
			v.FT.PutRef(pfns[i])
		}
		v.unlockMMU()
	}, nil
}
