package bench

import (
	"strconv"
	"testing"

	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/vo"
)

// voCalls returns the registry's vo/calls_total series for one object
// kind, keyed by the dom label ("" for objects without one).
func voCalls(col *obs.Collector, object string) map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range col.Registry.Dump() {
		if m.Subsystem == "vo" && m.Name == "calls_total" && m.Labels["object"] == object {
			out[m.Labels["dom"]] += uint64(m.Value)
		}
	}
	return out
}

// TestMUExportsEachVirtualObject: on M-U the driver domain and the
// hosted domU each run a virtual object on one machine. The registry
// must export both counts, not just the first one registered.
func TestMUExportsEachVirtualObject(t *testing.T) {
	col := obs.New(1)
	s, err := Build(MU, Options{Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	s.Run("vo-counters", func(p *guest.Proc) {
		base := p.Mmap(8, guest.ProtRead|guest.ProtWrite, false)
		p.Touch(base, 8, true)
		p.Fork("child", func(cp *guest.Proc) { cp.Exit(0) })
		p.Wait()
	})
	domU := s.K.VO().(*vo.Virtual)
	driver := s.Mercury.VirtualVO
	if domU == driver {
		t.Fatal("M-U measured kernel runs on the driver domain's object")
	}
	got := voCalls(col, "virtual")
	var total uint64
	for _, calls := range got {
		total += calls
	}
	if want := driver.Stats.Calls.Load() + domU.Stats.Calls.Load(); total != want {
		t.Errorf("registry virtual calls total %d, objects counted %d", total, want)
	}
	for _, o := range []*vo.Virtual{driver, domU} {
		dom := strconv.Itoa(int(o.D.ID))
		if want := o.Stats.Calls.Load(); want == 0 || got[dom] != want {
			t.Errorf("dom%s: registry reads %d virtual calls, object counted %d", dom, got[dom], want)
		}
	}
}
