package hw

import "testing"

// Host-time microbenchmarks of the per-access paths every simulated
// operation goes through. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/hw

var benchSink uint32

func BenchmarkPhysMemReadWord(b *testing.B) {
	m := NewPhysMem(128 << 20)
	for pfn := PFN(0); pfn < 64; pfn++ {
		m.WriteWord(pfn.Addr(), uint32(pfn))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += m.ReadWord(PFN(i&63).Addr() + PhysAddr(i&0x3FC))
	}
}

func BenchmarkCPUCharge(b *testing.B) {
	c := NewMachine(DefaultConfig()).BootCPU()
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(NewIDT("k"))
	c.Sti()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Charge(10)
	}
}

func BenchmarkNewMachine(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewMachine(cfg)
	}
}
