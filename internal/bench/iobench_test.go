package bench

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/workloads"
)

func sampleIOPoint(t *testing.T, queues, depth int, arrival hw.Cycles) IOPoint {
	t.Helper()
	pt := IOPoint{Queues: queues, Depth: depth, Arrival: arrival}
	nat, err := workloads.RunIOServer(workloads.IOConfig{
		Queues: queues, Depth: depth, Requests: 300, MeanArrival: arrival, Seed: ioSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	virt, err := workloads.RunIOServer(workloads.IOConfig{
		Queues: queues, Depth: depth, Requests: 300, MeanArrival: arrival, Seed: ioSeed,
		Virtual: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt.Native, pt.Virtual = *nat, *virt
	return pt
}

func TestIOBaselineRoundTripAndCompare(t *testing.T) {
	pts := []IOPoint{sampleIOPoint(t, 1, 16, 6000)}
	res, err := workloads.RunIOServer(workloads.IOConfig{
		Queues: 2, Depth: 32, Requests: 400, MeanArrival: 6000, Seed: ioSeed,
		Virtual: true, SwitchMid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := &IOSwitchPoint{Queues: 2, Depth: 32, Arrival: 6000, Result: *res}
	moved := *sw
	moved.Result.WindowP99++
	checkExactGate(t,
		IOBaseline{Schema: IOBaselineSchema, Sweep: pts, Switch: sw},
		IOBaseline{Schema: IOBaselineSchema, Sweep: pts, Switch: &moved})
}

// The acceptance criteria ride on the sweep's virtual points: the
// suppression ratio at depth >= 64 and the switch point's window
// quantiles. Pin them on a sample cell rather than the full grid.
func TestIOPointMeetsAcceptance(t *testing.T) {
	pt := sampleIOPoint(t, 1, 64, 3000)
	if pt.Virtual.SuppressionRatio < 5 {
		t.Fatalf("suppression ratio %.1f < 5 at depth 64", pt.Virtual.SuppressionRatio)
	}
	if pt.Virtual.Completed != pt.Virtual.Submitted {
		t.Fatalf("virtual cell lost requests: %d of %d", pt.Virtual.Completed, pt.Virtual.Submitted)
	}
	if pt.Native.Completed != pt.Native.Submitted {
		t.Fatalf("native cell lost requests: %d of %d", pt.Native.Completed, pt.Native.Submitted)
	}
}
