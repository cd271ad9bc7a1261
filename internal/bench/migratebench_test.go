package bench

import (
	"reflect"
	"testing"
)

func TestMigrateSweepVerifiedAndDeterministic(t *testing.T) {
	pts, err := MigrateSweep(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(MigratePages) * len(MigrateDirty) * len(MigrateSLOsUS)
	if len(pts) != want {
		t.Fatalf("sweep has %d points, want %d", len(pts), want)
	}
	for _, pt := range pts {
		if !pt.Verified {
			t.Fatalf("point %dpg/%ddirty/slo=%.0fus migrated unverified",
				pt.Pages, pt.DirtyPerRound, pt.SLOUs)
		}
		if pt.PagesSent < pt.Pages {
			t.Fatalf("point %dpg sent only %d pages", pt.Pages, pt.PagesSent)
		}
		if pt.Rounds < 1 {
			t.Fatalf("point %dpg/%ddirty reports %d pre-copy rounds", pt.Pages, pt.DirtyPerRound, pt.Rounds)
		}
		if pt.StopReason == "" {
			t.Fatal("missing stop reason")
		}
		if pt.DowntimeCyc == 0 || pt.TotalCyc < pt.DowntimeCyc {
			t.Fatalf("implausible timing: downtime=%d total=%d", pt.DowntimeCyc, pt.TotalCyc)
		}
	}

	// The simulation is deterministic — that is what makes the committed
	// baseline meaningful.
	pts2, err := MigrateSweep(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, pts2) {
		t.Fatal("two sweeps diverge")
	}
}

func TestMigrateBaselineRoundTripAndCompare(t *testing.T) {
	pts := []MigratePoint{
		{Pages: 512, DirtyPerRound: 8, SLOUs: 0, Rounds: 2, PagesSent: 520,
			DowntimeCyc: 1000, TotalCyc: 5000, StopReason: "threshold", Verified: true},
		{Pages: 512, DirtyPerRound: 64, SLOUs: 300, Rounds: 3, PagesSent: 700,
			DowntimeCyc: 2000, TotalCyc: 9000, StopReason: "slo", Verified: true},
	}
	moved := append([]MigratePoint(nil), pts...)
	moved[0].DowntimeCyc++
	checkExactGate(t,
		MigrateBaseline{Schema: MigrateBaselineSchema, Sweep: pts},
		MigrateBaseline{Schema: MigrateBaselineSchema, Sweep: moved})
}
