package exper_test

import (
	"runtime"
	"testing"
	"time"

	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/locks"
	"dsm/internal/machine"
)

// settleGoroutines waits for the goroutine count to fall to want and fails
// the test if it does not within a few seconds.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: machines left unclosed", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepSlotsClosesMachines checks that a sweep leaves no processor
// coroutine behind, serially and with parallel workers.
func TestSweepSlotsClosesMachines(t *testing.T) {
	pt := exper.Point{
		App:     exper.AppCounter,
		Bar:     exper.Bar{Policy: core.PolicyINV, Prim: locks.PrimFAP},
		Scale:   exper.RunOpts{Procs: 8, Rounds: 2},
		Pattern: exper.Pattern{Contention: 4, Rounds: 2},
	}
	for _, par := range []int{1, 3} {
		base := runtime.NumGoroutine()
		exper.SweepSlots(6, par, func(s *exper.MachineSlot, i int) { pt.RunSlot(s, false) })
		settleGoroutines(t, base)
	}
}

// TestSlotEvictionClosesMachine checks that the machine a full slot evicts
// is closed: only the resident machines keep processor coroutines.
func TestSlotEvictionClosesMachine(t *testing.T) {
	cfgs := geometries(exper.SlotMachines + 2)
	base := runtime.NumGoroutine()
	var s exper.MachineSlot
	for _, cfg := range cfgs {
		s.Machine(cfg).Run(func(*machine.Proc) {})
	}
	resident := 0
	for _, cfg := range cfgs[len(cfgs)-exper.SlotMachines:] {
		resident += cfg.Nodes
	}
	settleGoroutines(t, base+resident)
	s.Close()
	settleGoroutines(t, base)
	if s.Resident() != 0 {
		t.Fatalf("%d machines resident after Close", s.Resident())
	}
}
