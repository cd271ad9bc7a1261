package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/vo"
)

// The lmbench-up workload: a seeded mix of the Table 1 operation
// classes, replayed identically on N-L, M-N, M-V and M-U (one simulated
// CPU each). Each operation is timed on the simulated clock around its
// guest.Proc calls.

// OpClass is one Table 1 operation class.
type OpClass int

const (
	opFork OpClass = iota
	opExec
	opSh
	opMmap
	opPageFault
	opProtFault
	opPipe2
	opPipe16
	opFile
	opPing
	opCompute
)

var opClasses = []OpClass{opFork, opExec, opSh, opMmap, opPageFault,
	opProtFault, opPipe2, opPipe16, opFile, opPing, opCompute}

func (o OpClass) String() string {
	return [...]string{"fork", "exec", "sh", "mmap", "pagefault", "protfault",
		"pipe2", "pipe16", "file", "ping", "compute"}[o]
}

// Op is one generated operation. N is its class-specific size; WS is
// the private working set, in pages, of each pipe16 ring process.
type Op struct {
	Class OpClass
	N     int
	WS    int
}

// opsPerClass is how many operations of each class one mix holds. A
// fixed quota per class keeps the mix's composition the same on every
// seed; the seed draws the order and a small jitter of each size.
const opsPerClass = 12

// opSize is each class's nominal size, taken from the repository's own
// drivers of the same operations (internal/workloads): lmbench.go's
// constants and shellStartup, dbench.go's file geometry, netperf.go's
// ping payload and osdb.go's per-query compute.
var opSize = map[OpClass]int{
	opFork:      0,      // heap pages the child dirties: lat_proc fork's child just exits
	opExec:      1,      // one fork+exec of hello
	opSh:        24,     // PATH stats the shell makes (shellStartup)
	opMmap:      3072,   // pages mapped, touched, unmapped (mmapPages, 12 MB)
	opPageFault: 448,    // file pages faulted in (pfPages)
	opProtFault: 200,    // protection faults caught (protIters)
	opPipe2:     40,     // token rounds, 2 processes (ctxRounds)
	opPipe16:    40,     // token rounds, 16 processes (ctxRounds)
	opFile:      64,     // KB written in 8 KB chunks, synced, half read back (dbench)
	opPing:      56,     // payload bytes (netperf.go's ping)
	opCompute:   42_000, // cycles of user work (osdbCPUPerQ)
}

// pipe16WS are lat_ctx's two 16-process working sets, 16 KB and 64 KB;
// each gets half of the pipe16 quota.
var pipe16WS = [2]int{4, 16}

// jitterPct is the most by which the seed moves a size from nominal.
const jitterPct = 10

// genOpMix draws the operation mix for a seed.
func genOpMix(seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	var ops []Op
	for _, c := range opClasses {
		n := opSize[c]
		j := n * jitterPct / 100
		for i := 0; i < opsPerClass; i++ {
			op := Op{Class: c, N: n - j + rng.Intn(2*j+1)}
			if c == opPipe16 {
				op.WS = pipe16WS[i%2]
			}
			ops = append(ops, op)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// pfFilePages is the file the page-fault class maps: large enough for
// the largest jittered size.
var pfFilePages = opSize[opPageFault] * (100 + jitterPct) / 100

var (
	helloImage = guest.Image{Name: "hello", TextPages: 120, DataPages: 60, StackPages: 8}
	shImage    = guest.Image{Name: "sh", TextPages: 210, DataPages: 150, StackPages: 16}
)

// logicalCounts are the events the transparency property says must be
// equal on every system replaying the same mix.
type logicalCounts struct {
	Syscalls, Forks, PageFaults, PTEWrites uint64
}

func (a logicalCounts) sub(b logicalCounts) logicalCounts {
	return logicalCounts{a.Syscalls - b.Syscalls, a.Forks - b.Forks,
		a.PageFaults - b.PageFaults, a.PTEWrites - b.PTEWrites}
}

// sysRun is one system's replay of the mix.
type sysRun struct {
	Key    string
	OpCyc  []hw.Cycles // per operation, in mix order
	Total  hw.Cycles
	Counts logicalCounts
	Layers layerCounts // deltas over the timed mix
	Bad    int         // operations whose output was wrong
	// InvariantErr is CheckInvariants' verdict after the mix (Mercury
	// systems only).
	InvariantErr error
}

// lmbenchResult is one lmbench-up pass.
type lmbenchResult struct {
	Ops  []Op
	Runs []sysRun // in lmbenchSystems order
}

var lmbenchSystems = []bench.SystemKey{bench.NL, bench.MN, bench.MV, bench.MU}

// buildLmbench builds the four systems, with a collector each when col
// is non-nil (col is called once per system).
func buildLmbench(col func() *obs.Collector) ([]*bench.System, error) {
	var out []*bench.System
	for _, key := range lmbenchSystems {
		opt := bench.Options{NCPU: 1}
		if col != nil {
			opt.Collector = col()
		}
		s, err := bench.Build(key, opt)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", key, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// runLmbench replays ops on each built system.
func runLmbench(systems []*bench.System, ops []Op) lmbenchResult {
	res := lmbenchResult{Ops: ops}
	for _, s := range systems {
		res.Runs = append(res.Runs, replay(s, ops))
	}
	return res
}

// replay runs the mix on one system inside an init process.
func replay(s *bench.System, ops []Op) sysRun {
	run := sysRun{Key: string(s.Key), OpCyc: make([]hw.Cycles, len(ops))}
	s.Run("lmbench-up", func(p *guest.Proc) {
		k := p.K
		// The resident image lmbench's own process has (workloads.warmup).
		img := guest.DefaultImage("lmbench-up")
		p.Touch(guest.TextBase, img.TextPages, false)
		p.Touch(guest.TextBase+hw.VirtAddr(img.TextPages<<hw.PageShift), img.DataPages, true)
		ro := p.Mmap(1, guest.ProtRead|guest.ProtWrite, true)
		p.Mprotect(ro, guest.ProtRead)
		p.SegvHandler = func(sp *guest.Proc, f *hw.TrapFrame) bool {
			f.Skip = true
			return true
		}
		var pf *guest.Inode
		p.Syscall(func(c *hw.CPU) {
			var err error
			if pf, err = k.FS.Create(c, "/pf.data"); err == nil {
				k.FS.WriteAt(c, pf, 0, pfFilePages*hw.PageSize)
			}
		})
		if pf == nil {
			run.Bad++
			return
		}

		before := readLogical(s)
		layersBefore := readLayers(s)
		for i, op := range ops {
			start := p.CPU().Now()
			if !doOp(p, op, i, ro, pf) {
				run.Bad++
			}
			run.OpCyc[i] = p.CPU().Now() - start
			run.Total += run.OpCyc[i]
		}
		run.Counts = readLogical(s).sub(before)
		run.Layers = readLayers(s).sub(layersBefore)
		p.SegvHandler = nil
		if s.Mercury != nil {
			run.InvariantErr = s.Mercury.CheckInvariants(p.CPU())
		}
	})
	return run
}

// doOp performs one operation and reports whether its output was right.
func doOp(p *guest.Proc, op Op, i int, ro hw.VirtAddr, pf *guest.Inode) bool {
	switch op.Class {
	case opFork:
		p.Fork("child", func(cp *guest.Proc) { cp.Exit(0) })
		return waitOK(p)
	case opExec:
		p.Fork("execer", func(cp *guest.Proc) {
			cp.Exec(helloImage)
			cp.Exit(0)
		})
		return waitOK(p)
	case opSh:
		p.Fork("sh", func(sh *guest.Proc) {
			sh.Exec(shImage)
			// rc files, PATH search and parsing, as shellStartup does.
			k := sh.K
			sh.Syscall(func(c *hw.CPU) {
				if _, err := k.FS.Stat(c, "/bin/sh"); err != nil {
					_, _ = k.FS.Create(c, "/bin/sh.rc")
				}
			})
			for j := 0; j < op.N; j++ {
				_, _ = sh.Stat("/bin/hello") // PATH search misses are normal
			}
			sh.Work(shParseCycles)
			sh.Fork("hello", func(h *guest.Proc) {
				h.Exec(helloImage)
				h.Exit(0)
			})
			code := 1
			if waitOK(sh) {
				code = 0
			}
			sh.Exit(code)
		})
		return waitOK(p)
	case opMmap:
		base := p.Mmap(op.N, guest.ProtRead|guest.ProtWrite, false)
		p.Touch(base, op.N, true)
		p.Munmap(base)
		return true
	case opPageFault:
		base := p.MmapFile(pf, op.N)
		p.Touch(base, op.N, false)
		p.Munmap(base)
		return true
	case opProtFault:
		for j := 0; j < op.N; j++ {
			p.Touch(ro, 1, true) // aborted by the SIGSEGV handler
		}
		return true
	case opPipe2:
		return pipeRing(p, 2, op.N, 0)
	case opPipe16:
		return pipeRing(p, 16, op.N, op.WS)
	case opFile:
		path := fmt.Sprintf("/bench%d.dat", i)
		fd, err := p.Creat(path)
		if err != nil {
			return false
		}
		n := op.N << 10
		for off := 0; off < n; off += fileChunk {
			p.Write(fd, min(fileChunk, n-off))
		}
		k := p.K
		p.Syscall(func(c *hw.CPU) { k.FS.Sync(c) })
		p.Seek(fd, 0)
		got := p.Read(fd, n/2)
		p.Close(fd)
		return got == n/2 && p.Unlink(path) == nil
	case opPing:
		return p.Ping(remoteID, op.N) > 0
	case opCompute:
		p.Work(hw.Cycles(op.N))
		return true
	}
	return false
}

// remoteID is the synthetic remote host that echoes pings.
const remoteID byte = 2

// waitOK reaps one child and reports whether it exited with status 0.
func waitOK(p *guest.Proc) bool {
	_, code, ok := p.Wait()
	return ok && code == 0
}

// Fixed parts of the operations, from the same drivers as opSize.
const (
	shParseCycles = 160_000 // the shell's own parsing (shellStartup)
	fileChunk     = 8 << 10 // write size (dbench's chunk)
)

// pipeRing passes a token around nproc processes connected by pipes
// for the given number of rounds, each process touching wsPages of
// private working set per activation (lmbench's lat_ctx ring).
func pipeRing(p *guest.Proc, nproc, rounds, wsPages int) bool {
	k := p.K
	pipes := make([]*guest.Pipe, nproc)
	for i := range pipes {
		pipes[i] = k.NewPipe()
	}
	// Cold cache lines per page once the ring's working sets spill the
	// cache (workloads.latCtx's rule).
	var cold hw.Cycles
	if nproc*wsPages*hw.PageSize > 256<<10 {
		cold = 1000
	}
	done := k.NewPipe()
	for i := 0; i < nproc; i++ {
		in, out := pipes[i], pipes[(i+1)%nproc]
		p.Fork("ring", func(rp *guest.Proc) {
			var ws hw.VirtAddr
			if wsPages > 0 {
				ws = rp.Mmap(wsPages, guest.ProtRead|guest.ProtWrite, true)
			}
			for r := 0; r < rounds; r++ {
				rp.PipeRead(in, 1)
				if wsPages > 0 {
					rp.AS.TouchWorkingSet(rp.CPU(), ws, wsPages, cold)
				}
				rp.PipeWrite(out, 1)
			}
			rp.PipeWrite(done, 1)
			rp.Exit(0)
		})
	}
	p.PipeWrite(pipes[0], 1)
	p.PipeRead(done, nproc)
	ok := true
	for i := 0; i < nproc; i++ {
		ok = waitOK(p) && ok
	}
	return ok
}

// readLogical snapshots the measured kernel's logical event counts.
func readLogical(s *bench.System) logicalCounts {
	k := s.K
	return logicalCounts{
		Syscalls:   k.Stats.Syscalls.Load(),
		Forks:      k.Stats.Forks.Load(),
		PageFaults: k.Stats.PageFaults.Load(),
		PTEWrites:  voStats(s).PTEWrites,
	}
}

// voCounts sums the operation counters of every virtualization object
// the measured kernel can use.
type voCounts struct{ Calls, PTEWrites uint64 }

func voStats(s *bench.System) voCounts {
	var objs []vo.Stats
	if s.Mercury != nil && s.K == s.Mercury.K {
		objs = append(objs, s.Mercury.NativeVO.Stats, s.Mercury.VirtualVO.Stats)
	} else {
		switch o := s.K.VO().(type) {
		case *vo.Direct:
			objs = append(objs, o.Stats)
		case *vo.Native:
			objs = append(objs, o.Stats)
		case *vo.Virtual:
			objs = append(objs, o.Stats)
		}
	}
	var c voCounts
	for _, st := range objs {
		c.Calls += st.Calls.Load()
		c.PTEWrites += st.PTEWrites.Load()
	}
	return c
}

// taxPct is the percentage by which total exceeds base.
func taxPct(total, base hw.Cycles) float64 {
	return (float64(total)/float64(base) - 1) * 100
}
