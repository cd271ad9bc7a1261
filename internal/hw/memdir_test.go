package hw

import (
	"bytes"
	"sync"
	"testing"
)

// The frame directory publishes backing pages by compare-and-swap; these
// tests are meant to run under -race.

func TestPhysMemConcurrentFirstTouch(t *testing.T) {
	const writers = 8
	m := NewPhysMem(4 * chunkFrames * PageSize)
	// Frames in untouched chunks race on the chunk and the page; frame
	// 3 races on the page of an already published chunk.
	m.WriteWord(PFN(0).Addr(), 1)
	for _, pfn := range []PFN{3, chunkFrames, 2*chunkFrames + 7, 4*chunkFrames - 1} {
		start := make(chan struct{})
		pages := make([]*byte, writers)
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				m.WriteWord(pfn.Addr()+PhysAddr(4*i), uint32(i+1))
				pages[i] = &m.frame(pfn)[0]
			}(i)
		}
		close(start)
		wg.Wait()
		for i := 0; i < writers; i++ {
			if pages[i] != pages[0] {
				t.Fatalf("frame %d: writer %d saw a different backing page", pfn, i)
			}
			if got := m.ReadWord(pfn.Addr() + PhysAddr(4*i)); got != uint32(i+1) {
				t.Fatalf("frame %d: writer %d's word reads %d: write lost", pfn, i, got)
			}
		}
	}
}

func TestPhysMemChunkBoundaries(t *testing.T) {
	const n = 2*chunkFrames + 37 // not a multiple of the chunk size
	m := NewPhysMem(n * PageSize)
	if m.NumFrames() != n || len(m.dir) != 3 {
		t.Fatalf("NumFrames = %d, chunks = %d; want %d, 3", m.NumFrames(), len(m.dir), n)
	}
	for _, pfn := range []PFN{chunkFrames - 1, chunkFrames, n - 1} {
		m.WriteWord(pfn.Addr()+PageSize-4, uint32(pfn))
	}
	for _, pfn := range []PFN{chunkFrames - 1, chunkFrames, n - 1} {
		if got := m.ReadWord(pfn.Addr() + PageSize - 4); got != uint32(pfn) {
			t.Fatalf("frame %d last word = %d", pfn, got)
		}
		if got := m.ReadWord(pfn.Addr()); got != 0 {
			t.Fatalf("frame %d first word = %d, neighbour write leaked", pfn, got)
		}
	}
	if m.peek(chunkFrames+1) != nil || m.peek(n-2) != nil {
		t.Fatal("untouched frames next to a chunk boundary got backing")
	}
	if m.Valid(n) {
		t.Fatal("frame past the end reported valid")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("write past the last frame did not panic")
		}
	}()
	m.WriteWord(PFN(n).Addr(), 1)
}

func TestPhysMemSnapshotRestoreExact(t *testing.T) {
	const n = 3 * chunkFrames
	m := NewPhysMem(n * PageSize)
	for _, pfn := range []PFN{1, chunkFrames - 1, chunkFrames, n - 1} {
		m.WriteWord(pfn.Addr()+8, 0xC0DE0000|uint32(pfn))
	}
	snap := m.Snapshot()
	for i, f := range snap {
		if (f != nil) != (m.peek(PFN(i)) != nil) {
			t.Fatalf("frame %d: snapshot nil=%v, memory backed=%v", i, f == nil, m.peek(PFN(i)) != nil)
		}
	}
	m.WriteWord(PFN(1).Addr()+8, 0)
	m.WriteWord(PFN(7).Addr(), 9) // touched after the snapshot
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	again := m.Snapshot()
	for i := range snap {
		if !bytes.Equal(snap[i], again[i]) || (snap[i] == nil) != (again[i] == nil) {
			t.Fatalf("frame %d differs after round trip", i)
		}
	}

	// A nil frame restored into a chunk that was never written must not
	// publish the chunk.
	fresh := NewPhysMem(n * PageSize)
	only := make([][]byte, n)
	only[5] = snap[1]
	if err := fresh.Restore(only); err != nil {
		t.Fatal(err)
	}
	if fresh.dir[1].Load() != nil || fresh.dir[2].Load() != nil {
		t.Fatal("restoring nil frames allocated a chunk")
	}
	if got := fresh.ReadWord(PFN(5).Addr() + 8); got != 0xC0DE0001 {
		t.Fatalf("restored frame reads %#x", got)
	}
}

func TestPhysMemSharedFramesAcrossChunks(t *testing.T) {
	const n = 3*chunkFrames + 5
	m := NewPhysMem(n * PageSize)
	var hooked []PFN
	hook := func(pfn PFN) { hooked = append(hooked, pfn) }
	a, b, c := PFN(5), PFN(chunkFrames+9), PFN(n-1)
	m.WriteWord(a.Addr(), 0xAAAA) // private content the mapping replaces
	for i, pfn := range []PFN{a, b, c} {
		if err := m.MapShared(pfn, cowPage(byte(0x10+i)), hook); err != nil {
			t.Fatal(err)
		}
	}
	if m.dir[1].Load() != nil || m.dir[3].Load() != nil {
		t.Fatal("MapShared on an untouched chunk published it")
	}
	if m.SharedFrames() != 3 || m.Load8(a.Addr()) != 0x10 || m.Load8(b.Addr()) != 0x11 {
		t.Fatal("mappings not visible across chunks")
	}

	m.Store8(b.Addr()+1, 0xFF) // promote: private copy of the shared page
	if m.SharedAt(b) || m.Load8(b.Addr()) != 0x11 || m.Load8(b.Addr()+1) != 0xFF {
		t.Fatal("promotion did not copy the shared page")
	}
	m.ZeroFrame(c) // a write: drops the mapping, frame reads zero
	if m.SharedAt(c) || m.Load8(c.Addr()) != 0 {
		t.Fatal("ZeroFrame of a shared frame left content behind")
	}
	m.ZeroFrame(b) // private frame in another chunk
	if m.ReadWord(b.Addr()) != 0 {
		t.Fatal("ZeroFrame of a private frame left content behind")
	}
	if m.SharedFrames() != 1 || !m.SharedAt(a) || m.Load8(a.Addr()) != 0x10 {
		t.Fatal("frame in the first chunk lost its mapping")
	}
	if len(hooked) != 2 || hooked[0] != b || hooked[1] != c {
		t.Fatalf("promotion hooks ran for %v, want [%d %d]", hooked, b, c)
	}
}

func TestPhysMemRestoreWrongSizeChangesNothing(t *testing.T) {
	m := NewPhysMem(2 * chunkFrames * PageSize)
	if err := m.MapShared(3, cowPage(0x5A), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.MapShared(chunkFrames+1, cowPage(0x6B), nil); err != nil {
		t.Fatal(err)
	}
	m.WriteWord(PFN(9).Addr(), 0x1234)
	before := m.Snapshot()

	for _, size := range []int{0, int(m.NumFrames()) - 1, int(m.NumFrames()) + 1} {
		if err := m.Restore(make([][]byte, size)); err == nil {
			t.Fatalf("Restore of %d frames accepted", size)
		}
		if m.SharedFrames() != 2 || !m.SharedAt(3) || !m.SharedAt(chunkFrames+1) {
			t.Fatalf("rejected Restore of %d frames dropped shared mappings", size)
		}
		after := m.Snapshot()
		for i := range before {
			if !bytes.Equal(before[i], after[i]) {
				t.Fatalf("rejected Restore of %d frames changed frame %d", size, i)
			}
		}
	}
}

// The hot paths the benchmark loads must not allocate.
func TestHotPathsAllocateNothing(t *testing.T) {
	m := NewPhysMem(1 << 20)
	a := PFN(3).Addr() + 16
	m.WriteWord(a, 1)
	var sink uint32
	if n := testing.AllocsPerRun(100, func() { sink += m.ReadWord(a) }); n != 0 {
		t.Fatalf("ReadWord allocates %.1f per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.WriteWord(a, sink) }); n != 0 {
		t.Fatalf("WriteWord allocates %.1f per call", n)
	}

	c := testMachine(1).BootCPU()
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(NewIDT("k"))
	c.Sti()
	c.LAPIC.ArmTimer(1<<62, VecTimer) // armed but not due
	if n := testing.AllocsPerRun(100, func() { c.Charge(throttleCheckEvery) }); n != 0 {
		t.Fatalf("Charge with nothing due allocates %.1f per call", n)
	}
}
