package hw

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// checkMirrors asserts the lock-free mirrors agree with the state under
// the lock.
func checkMirrors(t *testing.T, l *LAPIC) {
	t.Helper()
	l.mu.Lock()
	pending, armed, deadline := len(l.pending) > 0, l.timerArmed, l.timerDeadline
	l.mu.Unlock()
	if l.HasPending() != pending {
		t.Fatalf("HasPending = %v, queue non-empty = %v", l.HasPending(), pending)
	}
	dl, ok := l.NextTimerDeadline()
	if ok != armed || (armed && dl != deadline) {
		t.Fatalf("NextTimerDeadline = (%d, %v), timer = (%d, %v)", dl, ok, deadline, armed)
	}
}

func TestLAPICZeroValue(t *testing.T) {
	l := &LAPIC{}
	checkMirrors(t, l)
	if _, _, ok := l.take(); ok {
		t.Fatal("zero LAPIC has a pending vector")
	}
	if _, _, ok := l.timerDue(math.MaxUint64); ok {
		t.Fatal("zero LAPIC timer fired")
	}
	l.Post(VecTimer)
	checkMirrors(t, l)
	if v, posted, ok := l.take(); !ok || v != VecTimer || posted != 0 {
		t.Fatalf("take = (%d, %d, %v)", v, posted, ok)
	}
	checkMirrors(t, l)

	// Wired into a CPU, a zero LAPIC delivers posts and timers.
	c := testMachine(1).BootCPU()
	c.LAPIC = &LAPIC{}
	fired := 0
	idt := NewIDT("k")
	idt.Set(VecTimer, Gate{Present: true, Target: PL0,
		Handler: func(*CPU, *TrapFrame) { fired++ }})
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
	c.LAPIC.Post(VecTimer)
	c.Charge(1)
	c.LAPIC.ArmTimer(c.Now()+10, VecTimer)
	c.Charge(10)
	if fired != 2 {
		t.Fatalf("zero LAPIC delivered %d of 2 interrupts", fired)
	}
}

func TestLAPICCrossGoroutinePost(t *testing.T) {
	c := testMachine(1).BootCPU()
	var got []int
	idt := NewIDT("k")
	for _, v := range []int{VecTimer, VecTimer + 1} {
		idt.Set(v, Gate{Present: true, Target: PL0,
			Handler: func(_ *CPU, f *TrapFrame) { got = append(got, f.Vector) }})
	}
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
	for i := 0; i < 50; i++ {
		v := VecTimer + i%2
		done := make(chan struct{})
		go func() { c.LAPIC.Post(v); close(done) }()
		<-done
		c.Charge(1)
		if len(got) != i+1 || got[i] != v {
			t.Fatalf("post %d of vector %d not delivered on the next poll (got %v)", i, v, got)
		}
	}
}

func TestLAPICConcurrentPostsArriveInOrder(t *testing.T) {
	const posts = 2000
	l := &LAPIC{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < posts; i++ {
			l.Post(i)
		}
	}()
	for want := 0; want < posts; {
		if v, _, ok := l.take(); ok {
			if v != want {
				t.Fatalf("took vector %d, want %d", v, want)
			}
			want++
		}
	}
	wg.Wait()
	checkMirrors(t, l)
}

func TestLAPICArmDisarmRearm(t *testing.T) {
	l := &LAPIC{}
	l.ArmTimer(1000, VecTimer)
	checkMirrors(t, l)
	l.DisarmTimer()
	checkMirrors(t, l)
	if _, _, ok := l.timerDue(2000); ok {
		t.Fatal("disarmed timer fired")
	}
	l.ArmTimer(3000, VecTimer+1)
	checkMirrors(t, l)
	if _, _, ok := l.timerDue(2999); ok {
		t.Fatal("re-armed timer fired early")
	}
	if v, dl, ok := l.timerDue(3000); !ok || v != VecTimer+1 || dl != 3000 {
		t.Fatalf("timerDue(3000) = (%d, %d, %v)", v, dl, ok)
	}
	if _, _, ok := l.timerDue(4000); ok {
		t.Fatal("one-shot timer fired twice")
	}
	checkMirrors(t, l)

	// Extremes of the deadline encoding.
	for _, dl := range []Cycles{0, math.MaxUint64 - 1, math.MaxUint64} {
		l.ArmTimer(dl, VecTimer)
		checkMirrors(t, l)
		if dl > 0 {
			if _, _, ok := l.timerDue(dl - 1); ok {
				t.Fatalf("deadline %d fired a cycle early", dl)
			}
		}
		if _, got, ok := l.timerDue(dl); !ok || got != dl {
			t.Fatalf("deadline %d did not fire on time", dl)
		}
	}
}

func TestLAPICMirrorsAgreeWithLockedState(t *testing.T) {
	l := &LAPIC{}
	rng := rand.New(rand.NewSource(7))
	now := Cycles(0)
	for i := 0; i < 5000; i++ {
		switch rng.Intn(5) {
		case 0:
			l.Post(rng.Intn(256))
		case 1:
			l.take()
		case 2:
			l.ArmTimer(now+Cycles(rng.Intn(100)), VecTimer)
		case 3:
			l.DisarmTimer()
		case 4:
			now += Cycles(rng.Intn(50))
			l.timerDue(now)
		}
		checkMirrors(t, l)
	}
}
