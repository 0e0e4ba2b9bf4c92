package mem

import (
	"testing"
	"testing/quick"

	"dsm/internal/arch"
	"dsm/internal/sim"
)

func newTestModule() (*sim.Engine, *Module) {
	eng := sim.NewEngine()
	return eng, New(eng, DefaultConfig())
}

func TestIsolatedAccessLatency(t *testing.T) {
	eng, m := newTestModule()
	var at sim.Time
	m.Access(func() { at = eng.Now() })
	eng.Run(0)
	if at != 18 {
		t.Fatalf("access completed at %d, want 18", at)
	}
}

func TestBackToBackAccessesPipeline(t *testing.T) {
	eng, m := newTestModule()
	var times []sim.Time
	for i := 0; i < 3; i++ {
		m.Access(func() { times = append(times, eng.Now()) })
	}
	eng.Run(0)
	// Service starts at 0, 6, 12; completions at 18, 24, 30.
	want := []sim.Time{18, 24, 30}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("completions %v, want %v", times, want)
		}
	}
	if m.Stats().QueueWait != 6+12 {
		t.Fatalf("QueueWait = %d, want 18", m.Stats().QueueWait)
	}
}

func TestAccessAfterIdleStartsImmediately(t *testing.T) {
	eng, m := newTestModule()
	var second sim.Time
	m.Access(func() {
		// Module idle again at occupancy end (6); now is 18.
		m.Access(func() { second = eng.Now() })
	})
	eng.Run(0)
	if second != 36 {
		t.Fatalf("second access at %d, want 36", second)
	}
}

func TestStatsCountAccesses(t *testing.T) {
	eng, m := newTestModule()
	for i := 0; i < 5; i++ {
		m.Access(func() {})
	}
	eng.Run(0)
	if m.Stats().Accesses != 5 {
		t.Fatalf("Accesses = %d, want 5", m.Stats().Accesses)
	}
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not clear")
	}
}

func TestStorageZeroInitialized(t *testing.T) {
	_, m := newTestModule()
	if v := m.ReadWord(0x1000); v != 0 {
		t.Fatalf("fresh word = %d, want 0", v)
	}
	if b := m.ReadBlock(0x2000); b != (arch.BlockData{}) {
		t.Fatalf("fresh block = %v, want zeros", b)
	}
}

func TestWordReadWrite(t *testing.T) {
	_, m := newTestModule()
	m.WriteWord(0x40, 0xdeadbeef)
	m.WriteWord(0x44, 7)
	if m.ReadWord(0x40) != 0xdeadbeef || m.ReadWord(0x44) != 7 {
		t.Fatal("word readback mismatch")
	}
	// Words land in the right block slots.
	b := m.ReadBlock(0x40)
	if b[0] != 0xdeadbeef || b[1] != 7 {
		t.Fatalf("block = %v", b)
	}
}

func TestBlockReadWriteRoundTrip(t *testing.T) {
	_, m := newTestModule()
	f := func(raw [arch.WordsPerBlock]uint32, aRaw uint32) bool {
		a := arch.BlockBase(arch.Addr(aRaw))
		var d arch.BlockData
		for i, w := range raw {
			d[i] = arch.Word(w)
		}
		m.WriteBlock(a, d)
		return m.ReadBlock(a) == d && m.ReadWord(a+4) == d[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlocksAreIndependent(t *testing.T) {
	_, m := newTestModule()
	m.WriteWord(0x20, 1)
	m.WriteWord(0x40, 2)
	if m.ReadWord(0x20) != 1 || m.ReadWord(0x40) != 2 || m.ReadWord(0x60) != 0 {
		t.Fatal("cross-block interference")
	}
}

func TestMisalignedWordPanics(t *testing.T) {
	_, m := newTestModule()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for misaligned read")
		}
	}()
	m.ReadWord(0x41)
}

// TestInterleavedModuleTable drives one home of a 4-node machine: blocks
// homed there, near and far, keep independent contents; Reset zeroes them
// in place; a block homed elsewhere panics.
func TestInterleavedModuleTable(t *testing.T) {
	const home, nodes = 2, 4
	var m Module
	m.Init(sim.NewEngine(), DefaultConfig(), home, nodes)
	bases := []arch.Addr{
		home * arch.BlockBytes,
		(nodes + home) * arch.BlockBytes,
		(100*nodes + home) * arch.BlockBytes,
		0xffffffe0 - (nodes-1-home)*arch.BlockBytes, // the last block homed here
	}
	for i, b := range bases {
		m.WriteWord(b+8, arch.Word(i+1))
	}
	for i, b := range bases {
		if got := m.ReadWord(b + 8); got != arch.Word(i+1) {
			t.Fatalf("word at %#x = %d, want %d", b+8, got, i+1)
		}
	}
	m.Reset()
	for _, b := range bases {
		if m.ReadBlock(b) != (arch.BlockData{}) {
			t.Fatalf("block %#x not zero after Reset", b)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WriteWord accepted a block homed at another node")
		}
	}()
	m.WriteWord((home+1)*arch.BlockBytes, 1)
}
