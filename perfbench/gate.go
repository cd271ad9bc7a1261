package main

// The correctness gate: every check counts its failures against the
// operations attempted, and any failure makes the run exit non-zero.

// gateLmbench checks the operations' outputs, Mercury's invariants and
// the transparency property: every system replaying the mix sees the
// same syscalls, forks, page faults and PTE writes.
func gateLmbench(rep *report, r *lmbenchResult) {
	ref := r.Runs[0]
	for _, run := range r.Runs {
		rep.Attempted += len(r.Ops)
		rep.fail(run.Bad, "lmbench-up %s: %d operations returned a wrong result", run.Key, run.Bad)
		if run.InvariantErr != nil {
			rep.fail(1, "lmbench-up %s: %v", run.Key, run.InvariantErr)
		}
		c, want := run.Counts, ref.Counts
		for _, f := range []struct {
			name      string
			got, want uint64
		}{
			{"syscalls", c.Syscalls, want.Syscalls},
			{"forks", c.Forks, want.Forks},
			{"page faults", c.PageFaults, want.PageFaults},
			{"PTE writes", c.PTEWrites, want.PTEWrites},
		} {
			if f.got != f.want {
				rep.fail(1, "lmbench-up transparency: %s saw %d %s, %s saw %d",
					run.Key, f.got, f.name, ref.Key, f.want)
			}
		}
	}
}

// gateSwitch checks that every SwitchSync returned nil and that the
// invariants held after the round trips.
func gateSwitch(rep *report, r *switchResult) {
	rep.Attempted += 2 * roundTrips
	rep.fail(r.Failed, "switch-smp: %d switches or reaps failed", r.Failed)
	if r.InvariantErr != nil {
		rep.fail(1, "switch-smp: %v", r.InvariantErr)
	}
	if n := len(r.AttachCyc) + len(r.DetachCyc); n != 2*roundTrips && r.Failed == 0 {
		rep.fail(2*roundTrips-n, "switch-smp: %d of %d switches completed", n, 2*roundTrips)
	}
}
