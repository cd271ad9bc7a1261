package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/obs"
)

// The switch-smp workload: N->V->N round trips on a two-CPU M-N system
// under the default recompute policy, while guest processes run on both
// CPUs. Before each round trip a seeded native episode changes the
// resident set (processes start or exit) and dirties memory, lightly
// and heavily in turn.

// The resident set is bench.ModeSwitchBench's: 14 processes, each with
// its image text and a 128-page heap faulted in; here the seed moves
// the count by up to two either way. A light episode writes lat_ctx's
// 16 KB working set; a heavy one maps and writes about as many pages as
// one round of bench.TrackingAblation's mmap loop (256, jittered 10%).
const (
	roundTrips   = 1000 // p99 of 1000 samples has 10 beyond it
	minResidents = 12   // the resident set stays within [min, max]
	maxResidents = 16
	residentHeap = 128 // heap pages each resident process touches
	spinners     = 1   // computing processes, so both CPUs are busy
	lightDirty   = 4
	heavyDirty   = 256
)

// episode is one native interval between round trips.
type episode struct {
	Spawn bool // start a resident process; otherwise one exits
	Dirty int  // pages the init process maps and writes
}

// genEpisodes draws the episodes for a seed: light and heavy dirtying
// alternate.
func genEpisodes(seed int64, n int) []episode {
	rng := rand.New(rand.NewSource(seed))
	eps := make([]episode, n)
	j := heavyDirty * jitterPct / 100
	for i := range eps {
		eps[i].Spawn = rng.Intn(2) == 0
		if i%2 == 0 {
			eps[i].Dirty = lightDirty
		} else {
			eps[i].Dirty = heavyDirty - j + rng.Intn(2*j+1)
		}
	}
	return eps
}

// switchResult is one switch-smp pass.
type switchResult struct {
	AttachCyc, DetachCyc []hw.Cycles
	RecomputeFrames      []int
	HostUS               []float64 // wall time per SwitchSync call
	Failed               int       // SwitchSync errors
	InvariantErr         error
	Deferred, Starved    uint64
	JournalReplays       uint64 // journal policy only
	JournalFallbacks     uint64
	Layers               layerCounts
	Phases               phaseStats // traced runs only
}

func buildSwitch(col *obs.Collector) (*bench.System, error) {
	s, err := bench.Build(bench.MN, bench.Options{NCPU: 2, Collector: col})
	if err != nil {
		return nil, fmt.Errorf("build switch-smp: %w", err)
	}
	return s, nil
}

// runSwitch drives the round trips on s.
func runSwitch(s *bench.System, eps []episode) switchResult {
	mc := s.Mercury
	res := switchResult{}
	col := s.M.Telemetry()
	before := readLayers(s)
	var stop atomic.Bool
	s.Run("switch-smp", func(p *guest.Proc) {
		k := p.K
		ready := k.NewPipe()
		for i := 0; i < spinners; i++ {
			// Work only: a process that also yields here panics the
			// system within a few round trips (README.md, known
			// program defects).
			p.Fork("spin", func(sp *guest.Proc) {
				for !stop.Load() {
					sp.Work(20_000)
				}
				sp.Exit(0)
			})
		}
		var holds []*guest.Pipe
		spawn := func() {
			hold := k.NewPipe()
			holds = append(holds, hold)
			p.Fork("resident", func(rp *guest.Proc) {
				img := guest.DefaultImage("resident")
				rp.Touch(guest.TextBase, img.TextPages, false)
				heap := rp.Mmap(residentHeap, guest.ProtRead|guest.ProtWrite, true)
				rp.Touch(heap, residentHeap, true)
				rp.PipeWrite(ready, 1)
				rp.PipeRead(hold, 1)
				rp.Exit(0)
			})
			p.PipeRead(ready, 1)
		}
		retire := func() {
			hold := holds[0]
			holds = holds[1:]
			p.PipeWrite(hold, 1)
			if !waitOK(p) {
				res.Failed++
			}
		}
		for i := 0; i < (minResidents+maxResidents)/2; i++ {
			spawn()
		}
		var dirty hw.VirtAddr
		for _, ep := range eps {
			switch {
			case ep.Spawn && len(holds) < maxResidents:
				spawn()
			case !ep.Spawn && len(holds) > minResidents:
				retire()
			}
			if dirty != 0 {
				p.Munmap(dirty)
			}
			dirty = p.Mmap(ep.Dirty, guest.ProtRead|guest.ProtWrite, false)
			p.Touch(dirty, ep.Dirty, true)

			t0 := time.Now()
			err := mc.SwitchSync(p.CPU(), core.ModePartialVirtual)
			res.HostUS = append(res.HostUS, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				res.Failed++
				continue
			}
			res.AttachCyc = append(res.AttachCyc, mc.Stats.LastAttachCyc.Load())
			res.RecomputeFrames = append(res.RecomputeFrames, mc.VMM.FT.Touched())
			t0 = time.Now()
			err = mc.SwitchSync(p.CPU(), core.ModeNative)
			res.HostUS = append(res.HostUS, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				res.Failed++
				continue
			}
			res.DetachCyc = append(res.DetachCyc, mc.Stats.LastDetachCyc.Load())
			if col != nil {
				res.Phases.add(col.Tracer.Spans())
				col.Tracer.Reset()
			}
		}
		res.InvariantErr = mc.CheckInvariants(p.CPU())
		stop.Store(true)
		for len(holds) > 0 {
			retire()
		}
		for i := 0; i < spinners; i++ {
			if !waitOK(p) {
				res.Failed++
			}
		}
	})
	res.Deferred = mc.Stats.Deferred.Load()
	res.Starved = mc.Stats.StarvedSwitches.Load()
	if j := mc.VMM.Journal(); j != nil {
		st := j.StatsSnapshot()
		res.JournalReplays, res.JournalFallbacks = st.Replays, st.Fallbacks
	}
	res.Layers = readLayers(s).sub(before)
	return res
}
