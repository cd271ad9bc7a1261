package workloads

import (
	"reflect"
	"testing"
	"time"
)

// TestIOServerSwitchUnderLoadExactlyOnce is the satellite's in-flight
// I/O across a mode switch test: every submitted request completes
// exactly once even though the M→N detach tears down the client domain
// mid-run, and the switch window actually intersected the request
// stream.
func TestIOServerSwitchUnderLoadExactlyOnce(t *testing.T) {
	res, err := RunIOServer(IOConfig{
		Queues: 2, Depth: 32, Requests: 600, MeanArrival: 6000,
		Seed: 42, Virtual: true, SwitchMid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted || res.Completed != 600 {
		t.Fatalf("completed %d of %d submitted (want 600)", res.Completed, res.Submitted)
	}
	if res.Duplicates != 0 || res.Lost != 0 {
		t.Fatalf("duplicates=%d lost=%d", res.Duplicates, res.Lost)
	}
	if res.FinalMode != "native" {
		t.Fatalf("final mode %q, want native", res.FinalMode)
	}
	if res.SwitchCyc == 0 {
		t.Fatal("switch window not measured")
	}
	if res.WindowRequests == 0 {
		t.Fatal("no requests were in flight across the switch")
	}
	if res.WindowP99 == 0 || res.WindowP99 < res.WindowP50 {
		t.Fatalf("window quantiles inconsistent: p50=%d p99=%d",
			res.WindowP50, res.WindowP99)
	}
}

// TestIOServerSuppressionRatio pins the acceptance criterion: at ring
// depth >= 64 the event-index protocol coalesces at least 5 ring slots
// per doorbell.
func TestIOServerSuppressionRatio(t *testing.T) {
	res, err := RunIOServer(IOConfig{
		Queues: 1, Depth: 64, Requests: 500, MeanArrival: 3000,
		Seed: 7, Virtual: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 500 {
		t.Fatalf("completed %d of 500", res.Completed)
	}
	if res.SuppressionRatio < 5 {
		t.Fatalf("suppression ratio %.2f < 5 at depth 64 (kicks: req=%d resp=%d forced=%d)",
			res.SuppressionRatio, res.ReqKicks, res.RespKicks, res.ForcedKicks)
	}
}

func TestIOServerNativeBaseline(t *testing.T) {
	res, err := RunIOServer(IOConfig{
		Queues: 1, Depth: 32, Requests: 300, MeanArrival: 6000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 300 || res.Lost != 0 || res.Duplicates != 0 {
		t.Fatalf("native run: completed=%d lost=%d dup=%d",
			res.Completed, res.Lost, res.Duplicates)
	}
	if res.FinalMode != "native" {
		t.Fatalf("final mode %q", res.FinalMode)
	}
	if res.ReqKicks != 0 && res.SuppressionRatio != 0 {
		t.Fatal("native run should not touch the ring datapath")
	}
}

// TestIOServerDeterministic: the simulation has no wall-clock or float
// randomness, so identical configs must yield byte-identical results —
// the property the CI baseline diff relies on.
func TestIOServerDeterministic(t *testing.T) {
	cfg := IOConfig{
		Queues: 2, Depth: 16, Requests: 400, MeanArrival: 5000,
		Seed: 1234, Virtual: true, SwitchMid: true,
	}
	a, err := RunIOServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIOServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestIOServerDoesNotWedge replays a seed whose VMM timer tick fires
// inside a ring charge: the tick runs the driver domain's slice, whose
// BlkMQBackend.Serve takes the same ring's lock. With a charge under
// the lock that re-entry deadlocks, so the run is bounded by a
// host-time watchdog (generous: a healthy run takes well under a
// second, even under -race).
func TestIOServerDoesNotWedge(t *testing.T) {
	cfg := IOConfig{Queues: 2, Depth: 64, ReadPct: 70, Virtual: true,
		Requests: 8000, MeanArrival: 21126, Seed: 863184}
	type outcome struct {
		res *IOResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunIOServer(cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Completed != cfg.Requests || o.res.Lost != 0 || o.res.Duplicates != 0 {
			t.Fatalf("completed=%d lost=%d dup=%d of %d",
				o.res.Completed, o.res.Lost, o.res.Duplicates, cfg.Requests)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("RunIOServer(%+v) never returned: IORing self-deadlock", cfg)
	}
}
