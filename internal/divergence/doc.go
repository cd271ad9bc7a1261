// Package divergence is the observatory that keeps the simulation
// honest about its virtualization tax. It runs one seeded workload
// three times — on native Linux (N-L), on Mercury in native mode (M-N),
// and on Mercury in virtual mode (M-V) — with probes threaded through
// internal/hw, internal/guest, internal/vo and internal/xen, and emits
// a transparency report: for every probe, the native count, the virtual
// count, the delta, and the percentage tax.
//
// The probes split into two classes. Logical counts (syscalls, forks,
// page faults, PTE writes, MMU updates, fault bounces, journal
// activity) are marked exact: a change means the model changed
// behaviour, not just speed. Time-derived counts (cycles, timer
// interrupts, context switches, TLB flushes, hypercalls that scale with
// ticks) follow the cost model. Both are deterministic on the simulated
// clock, so CI regenerates the committed report and fails on any git
// diff.
//
// A second set of probes decomposes the mode switch itself: the harness
// drives M-N across an attach/detach cycle under both the recompute and
// journal tracking policies, and records the per-phase cycle breakdown,
// TLB-flush activity, and dirty-frame journal statistics.
//
// The headline number is the native tax: the M-N workload slowdown over
// N-L. The paper's claim is that Mercury's native mode costs on the
// order of 2–3% (§7.2); Report.CheckNativeTax fails when a change
// pushes the measured tax past the NativeTaxBudgetPct constant, so the
// claim is CI-enforced rather than aspirational.
package divergence
