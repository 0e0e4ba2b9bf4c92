package exper

import (
	"dsm/internal/core"
	"dsm/internal/machine"
)

// Machine reuse has one form, MachineSlot: per-worker ownership. A sweep
// worker (or serve pool worker) holds one slot for its lifetime and reuses
// its resident machines across jobs with no locking, so at GOMAXPROCS > 1
// no two workers ever touch a shared structure between runs. A one-off
// run (Point.Run, Table1, cmd/dsmsim) owns a slot for the run's length.
//
// Machine construction dominates short runs (the cache slabs alone are
// ~100KB per node pair), and machine.Reset restores a used machine to a
// state that replays a fresh one cycle for cycle, so reuse changes host
// time only. A machine holds its processors' coroutines until it is
// closed, so a slot closes every machine it lets go of: the one it evicts
// and, on Close, all it holds. A shared pool could not do that, since
// sync.Pool drops its machines without telling anyone.

// SlotMachines bounds how many machines of distinct geometry one slot
// keeps resident. Mixed-geometry work (a sweep spanning several processor
// counts, a serve worker fed arbitrary specs) cycles through its
// geometries without rebuilding, while the worst case stays a few MB of
// resident simulator state per worker.
const SlotMachines = 4

// MachineSlot holds one worker goroutine's dedicated machines: a small
// most-recently-used cache keyed by machine geometry. The zero value is
// ready to use; Machine builds on first use of a geometry and
// reset-and-reuses thereafter, evicting the least recently used machine
// past the SlotMachines bound. A slot must only be used by one goroutine
// at a time — that exclusivity is the point: no pool lock, no
// double-release guard, no handoff between cores. The owner calls Close
// when done with the slot.
type MachineSlot struct {
	ms []*machine.Machine // most recently used first; len <= SlotMachines

	builds uint64 // machines constructed (cache misses)
	resets uint64 // machines reset-and-reused (cache hits)
}

// Machine returns a machine configured as cfg, reusing a resident machine
// whose structure matches and building one otherwise. The returned machine
// stays owned by the slot: do not close it, just call Machine again for the
// next run. Matching is by attempted Reset — Reset refuses structural
// mismatches and leaves the machine untouched, so probing the residents in
// recency order is both the lookup and the reuse.
func (s *MachineSlot) Machine(cfg core.Config) *machine.Machine {
	for i, m := range s.ms {
		if m.Reset(cfg) {
			s.resets++
			if i != 0 {
				copy(s.ms[1:i+1], s.ms[:i])
				s.ms[0] = m
			}
			return m
		}
	}
	m := machine.New(cfg)
	s.builds++
	// Shift right; when the slot is full this evicts the last (least
	// recently used) machine.
	if len(s.ms) == SlotMachines {
		s.ms[SlotMachines-1].Close()
	} else {
		s.ms = append(s.ms, nil)
	}
	copy(s.ms[1:], s.ms)
	s.ms[0] = m
	return m
}

// Stats reports the slot's lifetime cache behavior: machines built (misses,
// including evictions refilled later) and machines reset-and-reused (hits).
func (s *MachineSlot) Stats() (builds, resets uint64) { return s.builds, s.resets }

// Resident returns how many machines the slot currently keeps.
func (s *MachineSlot) Resident() int { return len(s.ms) }

// Close closes every resident machine and empties the slot; the lifetime
// counters Stats reports are kept. The slot stays usable: the next Machine
// call builds afresh. Close is also how a worker recovers from a panicked
// run, whose machine is left in an unknown state.
func (s *MachineSlot) Close() {
	for i, m := range s.ms {
		m.Close()
		s.ms[i] = nil
	}
	s.ms = s.ms[:0]
}

// MachineConfig is the machine configuration a bar needs at the given
// scale: a near-square mesh accommodating o.Procs nodes, with the bar's
// CAS variant.
func MachineConfig(o RunOpts, b Bar) core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes = o.Procs
	w := 1
	for w*w < o.Procs {
		w++
	}
	cfg.Mesh.Width = w
	cfg.Mesh.Height = (o.Procs + w - 1) / w
	cfg.CAS = b.Variant
	return cfg
}

// NewMachine builds a machine for one bar under the given scale. Close it
// when its statistics are no longer needed.
func NewMachine(o RunOpts, b Bar) *machine.Machine {
	return machine.New(MachineConfig(o, b))
}
