package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/workloads"
)

// The two tests below check program behaviour the benchmark found
// broken (README.md, "Known program defects"). They fail until the
// program is fixed; the benchmark's workloads are not shaped around
// either defect except as README.md states.

// TestIOServerDoesNotWedge runs a configuration whose scheduler tick
// lands inside a ring operation: the backend's slice then re-takes the
// ring lock the frontend holds. The call runs on its own goroutine
// under a 2 s host-time watchdog; a wedged call's goroutine is
// abandoned.
func TestIOServerDoesNotWedge(t *testing.T) {
	cfg := workloads.IOConfig{Queues: 2, Depth: 64, ReadPct: 70, Virtual: true,
		Requests: 8000, MeanArrival: 21126, Seed: 863184}
	done := make(chan error, 1)
	go func() {
		_, err := workloads.RunIOServer(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("RunIOServer(%+v) never returned: IORing self-deadlock", cfg)
	}
}

const yieldChildEnv = "PERFBENCH_YIELD_CHILD"

// TestYieldingProcessSurvivesSwitchRoundTrips switches a two-CPU M-N
// system N->V->N while a process on the other CPU computes and yields.
// The run happens in a child process because the failure is a panic on
// a simulated CPU's goroutine.
func TestYieldingProcessSurvivesSwitchRoundTrips(t *testing.T) {
	if os.Getenv(yieldChildEnv) == "1" {
		yieldingRoundTrips(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestYieldingProcessSurvivesSwitchRoundTrips$")
	cmd.Env = append(os.Environ(), yieldChildEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		first, _, _ := strings.Cut(out.String(), "\n")
		t.Fatalf("round trips with a yielding process failed (%v): %s", err, first)
	}
}

func yieldingRoundTrips(t *testing.T) {
	s, err := bench.Build(bench.MN, bench.Options{NCPU: 2})
	if err != nil {
		t.Fatal(err)
	}
	mc := s.Mercury
	var stop atomic.Bool
	var switchErr error
	s.Run("yield", func(p *guest.Proc) {
		p.Fork("spin", func(sp *guest.Proc) {
			for !stop.Load() {
				sp.Work(20_000)
				sp.Yield()
			}
			sp.Exit(0)
		})
		for i := 0; i < 200 && switchErr == nil; i++ {
			if switchErr = mc.SwitchSync(p.CPU(), core.ModePartialVirtual); switchErr == nil {
				switchErr = mc.SwitchSync(p.CPU(), core.ModeNative)
			}
		}
		stop.Store(true)
		p.Wait()
	})
	if switchErr != nil {
		t.Fatal(switchErr)
	}
}
