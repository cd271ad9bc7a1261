package hw

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Address-space geometry, mirroring the 32-bit x86 layout the paper's
// prototype uses (§3.2.2): a single 4 GB virtual address space with the
// kernel in the top 1 GB and the VMM reserved in the top 64 MB. Mercury
// keeps the VMM hole reserved even in native mode so the layout never has
// to change across a mode switch.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4096
	PageMask  = PageSize - 1

	// KernelBase is where the guest kernel's address space begins.
	KernelBase VirtAddr = 0xC000_0000
	// VMMBase is the start of the 64 MB region reserved for the
	// pre-cached VMM, at the very top of every address space.
	VMMBase VirtAddr = 0xFC00_0000
	// VMMSize is the size of the reserved VMM region.
	VMMSize = 64 << 20
)

// PhysAddr is a physical byte address.
type PhysAddr uint32

// VirtAddr is a virtual byte address.
type VirtAddr uint32

// PFN is a physical page frame number.
type PFN uint32

// NoPFN marks an invalid/absent frame.
const NoPFN = PFN(0xFFFF_FFFF)

// Addr returns the physical address of the first byte of the frame.
func (p PFN) Addr() PhysAddr { return PhysAddr(p) << PageShift }

// PFNOf returns the frame containing the physical address.
func PFNOf(a PhysAddr) PFN { return PFN(a >> PageShift) }

// VPN is a virtual page number.
type VPN uint32

// VPNOf returns the virtual page containing the virtual address.
func VPNOf(a VirtAddr) VPN { return VPN(a >> PageShift) }

// Addr returns the virtual address of the first byte of the page.
func (v VPN) Addr() VirtAddr { return VirtAddr(v) << PageShift }

// PhysMem is the machine's physical memory, divided into 4 KB frames.
// Frame contents are allocated lazily so large simulated memories stay
// cheap on the host. PhysMem is safe for concurrent use by multiple CPUs.
//
// Backing pages live in a two-level directory: one atomic pointer per
// chunk of chunkFrames frames, each chunk an array of atomic frame
// pointers. Chunks and pages are published by compare-and-swap on first
// touch, so every access is two plain loads on the hot path and there is
// no lock. The directory orders only the publication of a backing page;
// ordering of frame contents across CPUs comes from the guest's own
// locks and the lockstep throttle, exactly as it would on hardware.
type PhysMem struct {
	dir    []atomic.Pointer[frameChunk] // nil until a frame in it is touched
	nframe PFN

	// dirty, when non-nil, records every frame written since the last
	// CollectDirty — the log-dirty mode live migration's pre-copy
	// rounds rely on. dirtyOn gates the hot path without a lock.
	dirtyOn atomic.Bool
	dirtyMu sync.Mutex
	dirty   map[PFN]struct{}

	// cow maps frames onto shared read-only pages (the fork snapshot
	// cache): reads are served from the shared bytes without copying,
	// and the first write promotes the frame to a private copy. cowCnt
	// gates the hot path without a lock.
	cowCnt atomic.Int64
	cowMu  sync.Mutex
	cow    map[PFN]*cowSource
}

// chunkFrames is the number of frames one directory chunk covers (2 MB
// of simulated memory, one 4 KB host page of pointers).
const chunkFrames = 512

// frameChunk holds the backing pages of chunkFrames consecutive frames,
// nil until first touched.
type frameChunk [chunkFrames]atomic.Pointer[[PageSize]byte]

// cowSource backs one copy-on-write frame: data is the shared read-only
// page (aliased, never written through), onPromote is invoked after the
// frame has been privatized by a first write.
type cowSource struct {
	data      []byte
	onPromote func(pfn PFN)
}

// EnableDirtyLog starts recording written frames.
func (m *PhysMem) EnableDirtyLog() {
	m.dirtyMu.Lock()
	if m.dirty == nil {
		m.dirty = make(map[PFN]struct{})
	}
	m.dirtyOn.Store(true)
	m.dirtyMu.Unlock()
}

// DisableDirtyLog stops recording and drops the log.
func (m *PhysMem) DisableDirtyLog() {
	m.dirtyMu.Lock()
	m.dirtyOn.Store(false)
	m.dirty = nil
	m.dirtyMu.Unlock()
}

// DirtyLogEnabled reports whether writes are currently being recorded —
// migration rollback asserts the log was disarmed.
func (m *PhysMem) DirtyLogEnabled() bool { return m.dirtyOn.Load() }

// CollectDirty returns and clears the set of frames written since the
// last collection. Nil if logging is off.
func (m *PhysMem) CollectDirty() []PFN {
	m.dirtyMu.Lock()
	defer m.dirtyMu.Unlock()
	if m.dirty == nil {
		return nil
	}
	out := make([]PFN, 0, len(m.dirty))
	for pfn := range m.dirty {
		out = append(out, pfn)
	}
	m.dirty = make(map[PFN]struct{})
	return out
}

// markDirty records a write when logging is enabled.
func (m *PhysMem) markDirty(pfn PFN) {
	if !m.dirtyOn.Load() {
		return
	}
	m.dirtyMu.Lock()
	if m.dirty != nil {
		m.dirty[pfn] = struct{}{}
	}
	m.dirtyMu.Unlock()
}

// NewPhysMem creates a physical memory of the given byte size (rounded
// down to whole frames).
func NewPhysMem(size uint64) *PhysMem {
	n := PFN(size >> PageShift)
	return &PhysMem{
		dir:    make([]atomic.Pointer[frameChunk], (uint64(n)+chunkFrames-1)/chunkFrames),
		nframe: n,
	}
}

// NumFrames returns the number of physical frames.
func (m *PhysMem) NumFrames() PFN { return m.nframe }

// Valid reports whether pfn addresses an existing frame.
func (m *PhysMem) Valid(pfn PFN) bool { return pfn < m.nframe }

// peek returns pfn's backing page without allocating: nil when the
// frame has never been touched.
func (m *PhysMem) peek(pfn PFN) *[PageSize]byte {
	c := m.dir[pfn/chunkFrames].Load()
	if c == nil {
		return nil
	}
	return c[pfn%chunkFrames].Load()
}

// slot returns the directory entry of pfn, publishing its chunk first
// if no frame in the chunk has been touched yet.
func (m *PhysMem) slot(pfn PFN) *atomic.Pointer[[PageSize]byte] {
	d := &m.dir[pfn/chunkFrames]
	c := d.Load()
	if c == nil {
		c = new(frameChunk)
		if !d.CompareAndSwap(nil, c) {
			c = d.Load()
		}
	}
	return &c[pfn%chunkFrames]
}

// frame returns the backing slice for pfn, allocating it if needed.
// Concurrent first touches agree on one page: the loser of the
// compare-and-swap adopts the winner's.
func (m *PhysMem) frame(pfn PFN) []byte {
	if p := m.peek(pfn); p != nil {
		return p[:]
	}
	s := m.slot(pfn)
	p := new([PageSize]byte)
	if !s.CompareAndSwap(nil, p) {
		p = s.Load()
	}
	return p[:]
}

// drop discards pfn's private backing (it reads as zero again) without
// publishing a chunk that was never touched.
func (m *PhysMem) drop(pfn PFN) {
	if c := m.dir[pfn/chunkFrames].Load(); c != nil {
		c[pfn%chunkFrames].Store(nil)
	}
}

// MapShared maps pfn copy-on-write onto a shared read-only page: reads
// see data without any copy, and the first write promotes the frame to
// a private copy (after which onPromote, if set, runs once). data must
// be exactly one page and must stay immutable while mapped — it is
// aliased, not copied. Any private content the frame held is discarded.
func (m *PhysMem) MapShared(pfn PFN, data []byte, onPromote func(PFN)) error {
	if !m.Valid(pfn) {
		return fmt.Errorf("hw: MapShared beyond memory: frame %d", pfn)
	}
	if len(data) != PageSize {
		return fmt.Errorf("hw: MapShared frame %d: page is %d bytes", pfn, len(data))
	}
	m.drop(pfn) // shared content replaces any private copy
	m.cowMu.Lock()
	if m.cow == nil {
		m.cow = make(map[PFN]*cowSource)
	}
	if _, dup := m.cow[pfn]; !dup {
		m.cowCnt.Add(1)
	}
	m.cow[pfn] = &cowSource{data: data, onPromote: onPromote}
	m.cowMu.Unlock()
	return nil
}

// UnmapShared removes a copy-on-write mapping without promoting it (the
// clone-teardown path). Reports whether pfn was mapped; the frame reads
// as zero afterwards.
func (m *PhysMem) UnmapShared(pfn PFN) bool {
	m.cowMu.Lock()
	_, ok := m.cow[pfn]
	if ok {
		delete(m.cow, pfn)
		m.cowCnt.Add(-1)
	}
	m.cowMu.Unlock()
	return ok
}

// SharedFrames returns the number of live copy-on-write mappings.
func (m *PhysMem) SharedFrames() int { return int(m.cowCnt.Load()) }

// SharedAt reports whether pfn is still copy-on-write mapped (not yet
// promoted by a write).
func (m *PhysMem) SharedAt(pfn PFN) bool {
	if m.cowCnt.Load() == 0 {
		return false
	}
	m.cowMu.Lock()
	_, ok := m.cow[pfn]
	m.cowMu.Unlock()
	return ok
}

// cowLookup returns pfn's CoW source, nil if none. The fast path for
// machines with no mappings is one atomic load.
func (m *PhysMem) cowLookup(pfn PFN) *cowSource {
	if m.cowCnt.Load() == 0 {
		return nil
	}
	m.cowMu.Lock()
	s := m.cow[pfn]
	m.cowMu.Unlock()
	return s
}

// promote materializes a private copy of a CoW frame ahead of a write,
// removing the mapping and running the promotion hook.
func (m *PhysMem) promote(pfn PFN) []byte {
	m.cowMu.Lock()
	s := m.cow[pfn]
	if s == nil {
		m.cowMu.Unlock()
		return m.frame(pfn)
	}
	delete(m.cow, pfn)
	m.cowCnt.Add(-1)
	m.cowMu.Unlock()
	f := m.frame(pfn)
	copy(f, s.data)
	if s.onPromote != nil {
		s.onPromote(pfn)
	}
	return f
}

// frameRO returns the bytes a read of pfn observes: the shared page for
// CoW-mapped frames, the private backing otherwise.
func (m *PhysMem) frameRO(pfn PFN) []byte {
	if s := m.cowLookup(pfn); s != nil {
		return s.data
	}
	return m.frame(pfn)
}

// frameRW returns writable backing for pfn, promoting a CoW mapping to
// a private copy first.
func (m *PhysMem) frameRW(pfn PFN) []byte {
	if m.cowCnt.Load() != 0 {
		return m.promote(pfn)
	}
	return m.frame(pfn)
}

// ReadWord reads a 32-bit little-endian word at the physical address.
func (m *PhysMem) ReadWord(a PhysAddr) uint32 {
	pfn := PFNOf(a)
	if !m.Valid(pfn) {
		panic(fmt.Sprintf("hw: physical read beyond memory: %#x", a))
	}
	off := a & PageMask
	if off > PageSize-4 {
		panic(fmt.Sprintf("hw: unaligned word read across frame: %#x", a))
	}
	f := m.frameRO(pfn)
	return uint32(f[off]) | uint32(f[off+1])<<8 |
		uint32(f[off+2])<<16 | uint32(f[off+3])<<24
}

// WriteWord writes a 32-bit little-endian word at the physical address.
func (m *PhysMem) WriteWord(a PhysAddr, v uint32) {
	pfn := PFNOf(a)
	if !m.Valid(pfn) {
		panic(fmt.Sprintf("hw: physical write beyond memory: %#x", a))
	}
	off := a & PageMask
	if off > PageSize-4 {
		panic(fmt.Sprintf("hw: unaligned word write across frame: %#x", a))
	}
	f := m.frameRW(pfn)
	f[off] = byte(v)
	f[off+1] = byte(v >> 8)
	f[off+2] = byte(v >> 16)
	f[off+3] = byte(v >> 24)
	m.markDirty(pfn)
}

// Load8 reads one byte at the physical address.
func (m *PhysMem) Load8(a PhysAddr) byte {
	pfn := PFNOf(a)
	if !m.Valid(pfn) {
		panic(fmt.Sprintf("hw: physical read beyond memory: %#x", a))
	}
	return m.frameRO(pfn)[a&PageMask]
}

// Store8 writes one byte at the physical address.
func (m *PhysMem) Store8(a PhysAddr, v byte) {
	pfn := PFNOf(a)
	if !m.Valid(pfn) {
		panic(fmt.Sprintf("hw: physical write beyond memory: %#x", a))
	}
	m.frameRW(pfn)[a&PageMask] = v
	m.markDirty(pfn)
}

// CopyFrame copies the full contents of frame src into frame dst.
func (m *PhysMem) CopyFrame(dst, src PFN) {
	if !m.Valid(dst) || !m.Valid(src) {
		panic("hw: CopyFrame beyond memory")
	}
	copy(m.frameRW(dst), m.frameRO(src))
	m.markDirty(dst)
}

// ZeroFrame clears the contents of a frame. Zeroing a CoW-mapped frame
// is a write: the mapping is dropped (the promotion hook runs) and the
// private copy is the implicit zero frame.
func (m *PhysMem) ZeroFrame(pfn PFN) {
	if !m.Valid(pfn) {
		panic("hw: ZeroFrame beyond memory")
	}
	if m.cowCnt.Load() != 0 {
		m.cowMu.Lock()
		s := m.cow[pfn]
		if s != nil {
			delete(m.cow, pfn)
			m.cowCnt.Add(-1)
		}
		m.cowMu.Unlock()
		if s != nil {
			m.drop(pfn)
			if s.onPromote != nil {
				s.onPromote(pfn)
			}
			m.markDirty(pfn)
			return
		}
	}
	f := m.peek(pfn)
	if f == nil {
		return // lazily-allocated frames are already zero
	}
	*f = [PageSize]byte{}
	m.markDirty(pfn)
}

// FrameBytes returns the backing bytes of a frame for bulk operations
// (device DMA, checkpointing). The caller must respect frame ownership.
func (m *PhysMem) FrameBytes(pfn PFN) []byte {
	if !m.Valid(pfn) {
		panic("hw: FrameBytes beyond memory")
	}
	m.markDirty(pfn) // pessimistic: the caller may write
	return m.frameRW(pfn)
}

// FrameBytesRO returns the backing bytes for read-only use (snapshots,
// migration senders) without touching the dirty log. For a CoW-mapped
// frame this is the shared page itself — zero copies.
func (m *PhysMem) FrameBytesRO(pfn PFN) []byte {
	if !m.Valid(pfn) {
		panic("hw: FrameBytesRO beyond memory")
	}
	return m.frameRO(pfn)
}

// Snapshot copies the full contents of physical memory. Untouched frames
// are recorded as nil to keep checkpoints compact; CoW-mapped frames are
// recorded with their shared content (what a read observes).
func (m *PhysMem) Snapshot() [][]byte {
	out := make([][]byte, m.nframe)
	for i := range out {
		if f := m.peek(PFN(i)); f != nil {
			cp := make([]byte, PageSize)
			copy(cp, f[:])
			out[i] = cp
		}
	}
	if m.cowCnt.Load() != 0 {
		m.cowMu.Lock()
		for pfn, s := range m.cow {
			cp := make([]byte, PageSize)
			copy(cp, s.data)
			out[pfn] = cp
		}
		m.cowMu.Unlock()
	}
	return out
}

// Restore overwrites physical memory from a snapshot taken by Snapshot.
// Any live CoW mappings are dropped (without running promotion hooks):
// the snapshot's contents win. A snapshot of the wrong size is rejected
// before anything changes.
func (m *PhysMem) Restore(snap [][]byte) error {
	if len(snap) != int(m.nframe) {
		return fmt.Errorf("hw: snapshot has %d frames, memory has %d",
			len(snap), m.nframe)
	}
	m.cowMu.Lock()
	m.cowCnt.Add(-int64(len(m.cow)))
	m.cow = nil
	m.cowMu.Unlock()
	for i, f := range snap {
		if f == nil {
			m.drop(PFN(i))
			continue
		}
		p := new([PageSize]byte)
		copy(p[:], f)
		m.slot(PFN(i)).Store(p)
	}
	return nil
}
