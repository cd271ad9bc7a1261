package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// findPoint pulls one sweep point by configuration.
func findPoint(t *testing.T, pts []SwitchScalePoint, policy string, ncpu, pages int) SwitchScalePoint {
	t.Helper()
	for _, pt := range pts {
		if pt.Policy == policy && pt.NCPU == ncpu && pt.Pages == pages {
			return pt
		}
	}
	t.Fatalf("no sweep point %s/%dcpu/%dpg", policy, ncpu, pages)
	return SwitchScalePoint{}
}

// TestSwitchScaleAcceptance runs the full sweep once and asserts the
// issue's two performance criteria plus determinism of the cycle counts.
func TestSwitchScaleAcceptance(t *testing.T) {
	pts, err := SwitchScale(Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Sub-linear attach in CPU count: with the shards running while the
	// APs are parked, 4 CPUs must not pay 4x1-CPU cycles — require at
	// least a 1.5x win at the larger working set.
	one := findPoint(t, pts, "recompute", 1, 4096)
	four := findPoint(t, pts, "recompute", 4, 4096)
	if four.AttachCyc*3 > one.AttachCyc*2 {
		t.Errorf("attach not sub-linear: 1 cpu %d cyc, 4 cpu %d cyc",
			one.AttachCyc, four.AttachCyc)
	}

	// Journal re-attach at ~10%% dirty beats the cold attach by >=5x.
	for _, pages := range ScalePages {
		j := findPoint(t, pts, "journal", 1, pages)
		if j.Replays == 0 {
			t.Errorf("journal %dpg: re-attach did not replay (%d fallbacks)", pages, j.Fallbacks)
		}
		if j.ReattachCyc*5 > j.AttachCyc {
			t.Errorf("journal %dpg: replay re-attach %d cyc vs cold %d: less than 5x win",
				pages, j.ReattachCyc, j.AttachCyc)
		}
	}

	// Determinism: the committed baseline is only diffable if a repeat
	// run reproduces the cycle counts exactly.
	again, err := SwitchScale(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, again) {
		t.Errorf("sweep not deterministic:\n%+v\n%+v", pts, again)
	}
}

// checkExactGate checks the two properties CI's regenerate-and-diff
// gate rests on for one baseline shape: the written file decodes back
// to exactly what was written, and moving one cycle field by a single
// cycle changes the file's bytes.
func checkExactGate[T any](t *testing.T, base, moved T) {
	t.Helper()
	dir := t.TempDir()
	read := func(name string, v T) []byte {
		path := filepath.Join(dir, name)
		if err := WriteJSONFile(path, v); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data, movedData := read("base.json", base), read("moved.json", moved)
	var back T
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, base) {
		t.Fatalf("round trip mangled the baseline:\n got %+v\nwant %+v", back, base)
	}
	if bytes.Equal(data, movedData) {
		t.Fatal("a one-cycle move left the file unchanged; git diff would miss it")
	}
}

func TestSwitchBaselineRoundTripAndCompare(t *testing.T) {
	pts := []SwitchScalePoint{
		{Policy: "recompute", NCPU: 1, Pages: 1024, AttachCyc: 1000, ReattachCyc: 900, DetachCyc: 100},
		{Policy: "journal", NCPU: 2, Pages: 4096, AttachCyc: 5000, ReattachCyc: 400, DetachCyc: 120, Replays: 1},
	}
	moved := append([]SwitchScalePoint(nil), pts...)
	moved[1].DetachCyc++
	checkExactGate(t,
		SwitchBaseline{Schema: SwitchBaselineSchema, Scale: pts},
		SwitchBaseline{Schema: SwitchBaselineSchema, Scale: moved})
}
