package bench

import (
	"fmt"
	"io"

	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/pgtable"
)

// Lazy-MMU multicall batching sweep: the same sensitive-operation
// stream issued per-op (one hypercall per operation, the Table 1
// baseline path) versus inside a lazy-MMU section (enqueued into the
// per-CPU multicall buffer and drained in one VMM entry). The sweep
// runs on M-V — Mercury in partial-virtual mode — so the numbers are
// the marginal win self-virtualization gets from adopting the Xen-Linux
// xen_mc_batch pattern.

// BatchingSchema versions the committed batching baseline.
const BatchingSchema = "mercury-bench/batching/v1"

// BatchingMixes are the op mixes swept: pure page-table entry stores
// (a fork/mmap storm), pure pin/unpin ladders (address-space create and
// teardown), and an interleaving of both.
var BatchingMixes = []string{"pte", "pin", "mixed"}

// BatchingOpCounts are the stream lengths swept.
var BatchingOpCounts = []int{16, 64, 256}

// BatchingPoint is one (mix, ops) cell of the sweep. Cycle fields are
// deterministic under the simulated cost model; the VMM-entry counts
// are exact and diffed exactly in CI.
type BatchingPoint struct {
	Mix             string  `json:"mix"`
	Ops             int     `json:"ops"`
	PerOpCycles     uint64  `json:"per_op_cycles"`
	BatchedCycles   uint64  `json:"batched_cycles"`
	PerOpEntries    uint64  `json:"per_op_vmm_entries"`
	BatchedEntries  uint64  `json:"batched_vmm_entries"`
	BatchedFlushes  uint64  `json:"batched_tlb_flushes"`
	PerOpTLBFlushes uint64  `json:"per_op_tlb_flushes"`
	Speedup         float64 `json:"speedup"`
}

// BatchingBaseline is the serialized sweep, committed at the repo root
// as BENCH_batching.json.
type BatchingBaseline struct {
	Schema string          `json:"schema"`
	Points []BatchingPoint `json:"points"`
}

// batchingStream issues one measured op stream on a built M-V system
// and returns (cycles, VMM entries, TLB flushes consumed).
func batchingStream(s *System, mix string, ops int, lazy bool) (uint64, uint64, uint64, error) {
	var cycles, entries, flushes uint64
	var serr error
	s.Run("batching", func(p *guest.Proc) {
		k := p.K
		c := p.CPU()
		o := k.VO()

		// A live leaf table for the pte stores: map one page so the
		// table and its pin exist.
		base := p.Mmap(1, guest.ProtRead|guest.ProtWrite, true)
		slot, ok := p.AS.PT.ExistingSlot(base)
		if !ok {
			serr = fmt.Errorf("bench: batching: no live slot")
			return
		}
		frames := make([]hw.PFN, ops)
		for i := range frames {
			frames[i] = k.Frames.Alloc()
		}
		// Fresh two-level trees for the pin ladders, built with direct
		// stores (not live yet), registered/released in the measured
		// stream.
		var trees []*pgtable.Tables
		if mix != "pte" {
			trees = make([]*pgtable.Tables, ops)
			for i := range trees {
				pt, err := pgtable.New(k.M.Mem, k.Frames.Alloc)
				if err != nil {
					serr = err
					return
				}
				sl, err := pt.SlotFor(guest.TextBase, k.Frames.Alloc,
					pgtable.DirectWriter(k.M.Mem))
				if err != nil {
					serr = err
					return
				}
				hw.WritePTE(k.M.Mem, sl.Table, sl.Index,
					hw.MakePTE(frames[i], hw.PTEPresent|hw.PTEUser))
				trees[i] = pt
			}
		}

		h0, m0 := s.Dom.Stats.Hypercalls.Load(), s.Dom.Stats.Multicalls.Load()
		f0 := c.TLB.Flushes
		start := c.Now()
		if lazy {
			o.BeginLazyMMU(c)
		}
		for i := 0; i < ops; i++ {
			switch mix {
			case "pte":
				idx := (slot.Index + 1 + i) % hw.PTEntries
				o.WritePTE(c, slot.Table, idx,
					hw.MakePTE(frames[i], hw.PTEPresent|hw.PTEUser))
			case "pin":
				o.RegisterRoot(c, trees[i].Root)
				o.ReleaseRoot(c, trees[i].Root)
			case "mixed":
				idx := (slot.Index + 1 + i) % hw.PTEntries
				o.WritePTE(c, slot.Table, idx,
					hw.MakePTE(frames[i], hw.PTEPresent|hw.PTEUser))
				if i%4 == 0 {
					o.RegisterRoot(c, trees[i].Root)
					o.ReleaseRoot(c, trees[i].Root)
				}
			}
		}
		o.FlushTLB(c)
		if lazy {
			o.EndLazyMMU(c)
		}
		cycles = c.Now() - start
		entries = (s.Dom.Stats.Hypercalls.Load() - h0) +
			(s.Dom.Stats.Multicalls.Load() - m0)
		flushes = c.TLB.Flushes - f0

		// Undo the raw entry stores (they bypassed the kernel's page
		// accounting) and tear the scratch trees down.
		if mix != "pin" {
			for i := 0; i < ops; i++ {
				idx := (slot.Index + 1 + i) % hw.PTEntries
				o.WritePTE(c, slot.Table, idx, 0)
			}
		}
		for _, pt := range trees {
			pt.Free(k.Frames.Free)
		}
		for _, pfn := range frames {
			k.Frames.Free(pfn)
		}
		p.Munmap(base)
	})
	return cycles, entries, flushes, serr
}

// BatchingSweep measures every (mix, ops) cell both ways on fresh M-V
// systems. Deterministic: same cost model, same counts every run.
func BatchingSweep() ([]BatchingPoint, error) {
	var pts []BatchingPoint
	for _, mix := range BatchingMixes {
		for _, ops := range BatchingOpCounts {
			pt := BatchingPoint{Mix: mix, Ops: ops}
			for _, lazy := range []bool{false, true} {
				s, err := Build(MV, Options{LazyMMU: lazy})
				if err != nil {
					return nil, fmt.Errorf("bench: batching %s/%d: %w", mix, ops, err)
				}
				cyc, ent, fl, err := batchingStream(s, mix, ops, lazy)
				if err != nil {
					return nil, fmt.Errorf("bench: batching %s/%d: %w", mix, ops, err)
				}
				if lazy {
					pt.BatchedCycles, pt.BatchedEntries, pt.BatchedFlushes = cyc, ent, fl
				} else {
					pt.PerOpCycles, pt.PerOpEntries, pt.PerOpTLBFlushes = cyc, ent, fl
				}
			}
			if pt.BatchedCycles > 0 {
				pt.Speedup = float64(pt.PerOpCycles) / float64(pt.BatchedCycles)
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// WriteBatchingSweep renders the sweep as a table.
func WriteBatchingSweep(w io.Writer, pts []BatchingPoint) {
	fmt.Fprintln(w, "lazy-MMU multicall batching (M-V, per-op hypercalls vs one multicall):")
	fmt.Fprintf(w, "  %-6s %5s  %12s %12s  %8s %8s  %7s\n",
		"mix", "ops", "per-op cyc", "batched cyc", "entries", "entries", "speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-6s %5d  %12d %12d  %8d %8d  %6.2fx\n",
			p.Mix, p.Ops, p.PerOpCycles, p.BatchedCycles,
			p.PerOpEntries, p.BatchedEntries, p.Speedup)
	}
}
