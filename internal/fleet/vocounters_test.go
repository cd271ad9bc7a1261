package fleet

import (
	"testing"

	"repro/internal/obs"
)

// TestSharedCollectorExportsEveryNode: fleet nodes share one collector,
// and each node's virtualization objects must export their own series
// (labelled by machine), so the registry total is the fleet total.
func TestSharedCollectorExportsEveryNode(t *testing.T) {
	col := obs.New(1)
	cfg := testConfig(3, false)
	cfg.Collector = col
	fc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.RunWave(WaveConfig{Action: ActionCheckpoint, BatchSize: 3}); err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]uint64{} // object -> machine -> calls
	for _, m := range col.Registry.Dump() {
		if m.Subsystem != "vo" || m.Name != "calls_total" {
			continue
		}
		obj := m.Labels["object"]
		if got[obj] == nil {
			got[obj] = map[string]uint64{}
		}
		got[obj][m.Labels["machine"]] += uint64(m.Value)
	}
	var nativeTotal, registryTotal uint64
	for _, n := range fc.Nodes {
		nativeTotal += n.MC.NativeVO.Stats.Calls.Load()
		for obj, want := range map[string]uint64{
			"native":  n.MC.NativeVO.Stats.Calls.Load(),
			"virtual": n.MC.VirtualVO.Stats.Calls.Load(),
		} {
			if want == 0 || got[obj][n.Name] != want {
				t.Errorf("%s: registry reads %d %s calls, object counted %d",
					n.Name, got[obj][n.Name], obj, want)
			}
		}
	}
	for _, calls := range got["native"] {
		registryTotal += calls
	}
	if registryTotal != nativeTotal {
		t.Errorf("registry native calls total %d, nodes counted %d", registryTotal, nativeTotal)
	}
}
