package bench

import "testing"

func TestForkPointSharingCounts(t *testing.T) {
	const pages, clones, dirty = 64, 8, 4
	pt, err := forkPoint(pages, clones, dirty)
	if err != nil {
		t.Fatal(err)
	}
	// Base: 64 unique data frames plus 2 table frames.
	if pt.BaseFrames != pages+2 {
		t.Fatalf("base frames = %d, want %d", pt.BaseFrames, pages+2)
	}
	// Each clone adds exactly its dirt plus the 2 relocated table
	// frames — stored bytes proportional to dirtied frames, not fleet
	// size times image size.
	wantDelta := clones * (dirty + 2)
	if pt.DeltaTotal != wantDelta {
		t.Fatalf("delta total = %d, want %d", pt.DeltaTotal, wantDelta)
	}
	// Identical dirt dedups to one stored copy; the 2 relocated table
	// frames per clone are clone-specific and cannot.
	if want := pt.BaseFrames + dirty + 2*clones; pt.StoreFrames != want {
		t.Fatalf("store frames = %d, want %d", pt.StoreFrames, want)
	}
	if pt.PromotedTotal != clones*(dirty+2) {
		t.Fatalf("promoted = %d, want %d", pt.PromotedTotal, clones*(dirty+2))
	}
	if pt.SharedTotal != clones*(pages+2-dirty-2) {
		t.Fatalf("shared = %d, want %d", pt.SharedTotal, clones*(pages-dirty))
	}
	if pt.RefLeaks != 0 {
		t.Fatalf("%d ref leaks", pt.RefLeaks)
	}
	if pt.DedupRatio <= 1 {
		t.Fatalf("dedup ratio = %v, want > 1", pt.DedupRatio)
	}
	// A fork must be far cheaper than copying the image: under half a
	// PageCopy per frame.
	if pt.CloneCycMean > uint64(pages)*900/2 {
		t.Fatalf("clone mean %d cycles — copy-dominated", pt.CloneCycMean)
	}
}

func TestForkBaselineRoundTripAndCompare(t *testing.T) {
	pts := []ForkPoint{{
		Pages: 64, Clones: 8, DirtyPages: 4,
		BaseFrames: 66, StoreFrames: 114, StoreBytes: 114 * 4096,
		SharedTotal: 480, PromotedTotal: 48, DeltaTotal: 48,
		DedupRatio: 1.5, CloneCycMean: 4000, DeltaCycMean: 9000,
	}}
	moved := append([]ForkPoint(nil), pts...)
	moved[0].CloneCycMean++
	checkExactGate(t,
		ForkBaseline{Schema: ForkBaselineSchema, Sweep: pts},
		ForkBaseline{Schema: ForkBaselineSchema, Sweep: moved})
}
