package hw

import (
	"math"
	"sync"
	"sync/atomic"
)

// LAPIC is a per-CPU local interrupt controller. Other CPUs (and devices,
// via the Machine's IO-APIC routing) post vectors into it; the owning CPU
// drains pending vectors at instruction boundaries when interrupts are
// enabled. Mercury's SMP mode-switch protocol (§5.4) is built on the IPI
// path: the control processor posts VecModeSwitchAP to every other core
// and the cores rendezvous on shared counters.
//
// The owning CPU polls on every Charge, so the poll must be cheap when
// nothing is due: npending and dueAt mirror the queue length and the
// armed deadline, are written only under mu, and are read without it.
// A poll that sees something due re-checks under mu. The zero value is
// a LAPIC with nothing pending and the timer disarmed.
type LAPIC struct {
	mu      sync.Mutex
	pending []pendingVec // FIFO of pending vectors

	// npending mirrors len(pending).
	npending atomic.Int32
	// dueAt mirrors the timer: 0 while disarmed, else the armed
	// deadline plus one (saturating, so it never reads later than the
	// deadline).
	dueAt atomic.Uint64

	// clk is the owning CPU's clock (the shared TSC timebase), read to
	// stamp each posted vector so delivery latency is observable; nil in
	// hand-built test fixtures, where posts go unstamped.
	clk *Clock

	// One-shot local timer: fires vector timerVec when the owning CPU's
	// clock reaches deadline.
	timerArmed    bool
	timerDeadline Cycles
	timerVec      int

	IPIsReceived atomic.Uint64

	// dropNext, when armed, makes the LAPIC silently discard the next
	// posted vector — the "dropped IPI" hardware fault for dependability
	// campaigns. Dropped counts every vector lost this way.
	dropNext atomic.Bool
	dropped  atomic.Uint64
}

// pendingVec is one queued vector plus the TSC reading at its post, the
// start point of the interrupt-delivery latency measurement.
type pendingVec struct {
	vec    int
	posted Cycles
}

// Post queues vector for delivery to the owning CPU. Safe to call from
// any goroutine (the TSC is synchronized across cores, so a cross-CPU
// post stamp and the owner's delivery clock share a timebase).
func (l *LAPIC) Post(vector int) {
	if l.dropNext.CompareAndSwap(true, false) {
		l.dropped.Add(1)
		return
	}
	var ts Cycles
	if l.clk != nil {
		ts = l.clk.Read()
	}
	l.mu.Lock()
	l.pending = append(l.pending, pendingVec{vec: vector, posted: ts})
	l.npending.Store(int32(len(l.pending)))
	l.mu.Unlock()
}

// ArmDropNext makes the LAPIC discard the next posted vector (fault
// injection: a lost IPI).
func (l *LAPIC) ArmDropNext() { l.dropNext.Store(true) }

// DroppedCount returns how many vectors this LAPIC has discarded.
func (l *LAPIC) DroppedCount() uint64 { return l.dropped.Load() }

// ClearDropped resets the dropped-vector count (and any still-armed
// drop), returning the count cleared.
func (l *LAPIC) ClearDropped() uint64 {
	l.dropNext.Store(false)
	return l.dropped.Swap(0)
}

// take removes and returns the next pending vector plus its post stamp
// (0 when the LAPIC has no clock).
func (l *LAPIC) take() (vec int, posted Cycles, ok bool) {
	if l.npending.Load() == 0 {
		return 0, 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		return 0, 0, false
	}
	p := l.pending[0]
	l.pending = l.pending[1:]
	l.npending.Store(int32(len(l.pending)))
	return p.vec, p.posted, true
}

// HasPending reports whether any vector is waiting.
func (l *LAPIC) HasPending() bool { return l.npending.Load() > 0 }

// ArmTimer programs the one-shot local timer.
func (l *LAPIC) ArmTimer(deadline Cycles, vector int) {
	l.mu.Lock()
	l.timerArmed = true
	l.timerDeadline = deadline
	l.timerVec = vector
	l.dueAt.Store(min(deadline, math.MaxUint64-1) + 1)
	l.mu.Unlock()
}

// DisarmTimer cancels the local timer.
func (l *LAPIC) DisarmTimer() {
	l.mu.Lock()
	l.timerArmed = false
	l.dueAt.Store(0)
	l.mu.Unlock()
}

// timerDue pops the timer vector if the deadline has passed, returning
// the armed deadline so delivery jitter (now − deadline) is observable.
func (l *LAPIC) timerDue(now Cycles) (vec int, deadline Cycles, ok bool) {
	if d := l.dueAt.Load(); d == 0 || now < d-1 {
		return 0, 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.timerArmed && now >= l.timerDeadline {
		l.timerArmed = false
		l.dueAt.Store(0)
		return l.timerVec, l.timerDeadline, true
	}
	return 0, 0, false
}

// NextTimerDeadline returns the armed deadline, if any. The idle loop uses
// it to fast-forward simulated time instead of spinning.
func (l *LAPIC) NextTimerDeadline() (Cycles, bool) {
	if l.dueAt.Load() == 0 {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.timerDeadline, l.timerArmed
}

// IOAPIC routes device interrupt lines to CPUs. Devices raise a line; the
// IOAPIC posts the configured vector to the configured CPU's LAPIC.
type IOAPIC struct {
	mu     sync.Mutex
	routes map[int]ioRoute // line -> route
	m      *Machine
}

type ioRoute struct {
	cpu    int
	vector int
	masked bool
}

// NewIOAPIC builds the I/O interrupt controller for m.
func NewIOAPIC(m *Machine) *IOAPIC {
	return &IOAPIC{routes: make(map[int]ioRoute), m: m}
}

// Route binds a device line to (cpu, vector). Rebinding interrupt routes
// is part of Mercury's state transfer: in native mode lines target the
// guest's vectors directly, in virtual mode they target the VMM's.
func (io *IOAPIC) Route(line, cpu, vector int) {
	io.mu.Lock()
	io.routes[line] = ioRoute{cpu: cpu, vector: vector}
	io.mu.Unlock()
}

// Mask disables delivery for a line.
func (io *IOAPIC) Mask(line int, masked bool) {
	io.mu.Lock()
	if r, ok := io.routes[line]; ok {
		r.masked = masked
		io.routes[line] = r
	}
	io.mu.Unlock()
}

// Raise signals a device interrupt line.
func (io *IOAPIC) Raise(line int) {
	io.mu.Lock()
	r, ok := io.routes[line]
	io.mu.Unlock()
	if !ok || r.masked {
		return
	}
	if r.cpu >= 0 && r.cpu < len(io.m.CPUs) {
		io.m.CPUs[r.cpu].LAPIC.Post(r.vector)
	}
}

// Routes returns a copy of the current routing table; Mercury's state
// transfer reads it to rebind lines across a mode switch.
func (io *IOAPIC) Routes() map[int][2]int {
	io.mu.Lock()
	defer io.mu.Unlock()
	out := make(map[int][2]int, len(io.routes))
	for line, r := range io.routes {
		out[line] = [2]int{r.cpu, r.vector}
	}
	return out
}
