// Package hostbench holds the host-time benchmark bodies: how fast the
// simulator itself runs on the host, as opposed to the simulated-cycle
// measurements of the paper reproduction. The bodies are ordinary
// func(*testing.B) so the same code backs the `go test -bench` wrappers in
// bench_test.go and cmd/benchjson, which runs them via testing.Benchmark
// and records the numbers as a JSON baseline per PR.
package hostbench

import (
	"testing"

	"dsm/internal/apps"
	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/locks"
	"dsm/internal/mesh"
	"dsm/internal/sim"
)

func nop() {}

// eventsPerIter is the number of events each Engine benchmark iteration
// schedules: two that fire and one that is cancelled.
const eventsPerIter = 3

// Engine exercises the discrete-event core's hot path: a self-rescheduling
// cascade that mixes fired and cancelled events, the pattern the machine
// model produces (memory-reference completions plus cancelled timeouts).
// Reports ns/event and events/sec over executed events; allocs/op divided
// by 3 is allocs/event (0 once the free list warms up).
func Engine(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(3, tick)
			e.After(5, nop)
			e.After(7, nop).Cancel()
		}
	}
	e.At(0, tick)
	b.ResetTimer()
	executed := e.Run(0)
	sec := b.Elapsed().Seconds()
	if executed > 0 && sec > 0 {
		b.ReportMetric(sec*1e9/float64(executed), "ns/event")
		b.ReportMetric(float64(executed)/sec, "events/sec")
	}
}

// sweepOpts is the reduced scale the Sweep benchmarks run at: large enough
// that each of the 210 pattern x bar runs does real protocol work, small
// enough for -bench iterations to be affordable.
func sweepOpts(par int) exper.RunOpts {
	return exper.RunOpts{Procs: 8, Rounds: 3, Par: par}
}

// Sweep regenerates a reduced figure-3 grid (every bar x pattern) with the
// given fan-out; par 1 is the serial baseline the speedup is measured
// against, par 0 uses every host core.
func Sweep(par int) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exper.Run(exper.SyntheticPlan(exper.AppCounter, sweepOpts(par)))
		}
	}
}

// MeshTransit measures the host cost of one mesh message at a fixed
// Manhattan distance, with internal-router link modeling on or off. Each
// iteration sends a single message and drains the engine. Reports
// events/msg: under hop-collapsed transit this is exactly 1 regardless of
// distance or router modeling — the metric that would regress if per-hop
// events ever crept back in.
func MeshTransit(dist int, routers bool) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		cfg := mesh.DefaultConfig()
		cfg.ModelRouters = routers
		e := sim.NewEngine()
		m := mesh.New(e, cfg)
		// Destination at the requested distance: exhaust X first, then Y,
		// matching the dimension-order route shape.
		dx := dist
		if dx > cfg.Width-1 {
			dx = cfg.Width - 1
		}
		dy := dist - dx
		if dy > cfg.Height-1 {
			b.Fatalf("distance %d exceeds %dx%d mesh", dist, cfg.Width, cfg.Height)
		}
		dst := mesh.NodeID(dy*cfg.Width + dx)
		flits := m.Flits(8)
		delivered := 0
		deliver := func(any) { delivered++ }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.SendArg(0, dst, flits, deliver, nil)
			for e.Step() {
			}
		}
		if delivered != b.N {
			b.Fatalf("delivered %d of %d messages", delivered, b.N)
		}
		b.ReportMetric(float64(e.EventsExecuted())/float64(b.N), "events/msg")
	}
}

// MachineRun measures one end-to-end contended-counter simulation per
// iteration — the alloc profile of the whole machine stack (engine pool,
// proc coroutines, protocol layer) rather than the bare engine. The
// benchmark owns a machine slot across iterations, as a one-off caller
// running several points would.
func MachineRun(b *testing.B) {
	b.ReportAllocs()
	bar := exper.Bar{Policy: core.PolicyUNC, Prim: locks.PrimFAP}
	o := exper.RunOpts{Procs: 8, Rounds: 3}
	pat := apps.Pattern{Contention: 8, Rounds: o.Rounds}
	var slot exper.MachineSlot
	defer slot.Close()
	cfg := exper.MachineConfig(o, bar)
	var events uint64
	for i := 0; i < b.N; i++ {
		m := slot.Machine(cfg)
		apps.CounterApp(m, bar.Policy, bar.Opts(), pat)
		events += m.Engine().EventsExecuted()
	}
	sec := b.Elapsed().Seconds()
	if events > 0 && sec > 0 {
		b.ReportMetric(sec*1e9/float64(events), "ns/event")
		b.ReportMetric(float64(events)/sec, "events/sec")
	}
}
