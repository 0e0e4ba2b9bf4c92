package main

import (
	"bytes"
	"compress/gzip"
	"time"

	"dsm/internal/arch"
	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/machine"
	"dsm/internal/mesh"
	"dsm/internal/serve"
	"dsm/internal/sim"
	"dsm/internal/stats"
)

// The isolation drives measure one layer's unit cost each, at the grids'
// geometry (16 nodes on a 4x4 mesh). Every cost is a self cost: the
// drive's time per unit minus what the nested layers it necessarily runs
// (engine events, mesh messages, tracker accesses) cost at their own
// drives' rates, so unit cost x count sums across layers without double
// counting.
type unitCosts struct {
	nsEvent      float64 // sim: one engine event (schedule + fire)
	nsMsg        float64 // mesh: one message's transit booking, less its delivery event
	nsLocalHit   float64 // core: one request satisfied in the node's cache, less its events and tracking
	nsRemote     float64 // core: one request that leaves the node, less events, messages and tracking
	nsHandoff    float64 // machine: one proc/engine goroutine handoff, less its event
	runStartUS   float64 // machine: slot Reset plus Run of an empty program
	nsAccessHot  float64 // stats: contention Begin/End + write-run Access on one location
	nsAccessSpr  float64 // stats: the same over 4096 locations
	encodeUS     float64 // serve: Outcome.Encode plus its gzip variant
	eventsPerMsg float64
}

// driveRepeats is how many times each drive runs; its cost is the median.
const driveRepeats = 5

func gridConfig() core.Config {
	return exper.MachineConfig(synthScale, exper.SyntheticBars()[0])
}

func repeatMedian(f func() float64) float64 {
	v := make([]float64, driveRepeats)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

func runDrives(width int) unitCosts {
	var u unitCosts
	u.nsEvent = repeatMedian(driveEngine)
	u.nsMsg = repeatMedian(func() float64 {
		ns, ev := driveMesh()
		return ns - ev*u.nsEvent
	})
	u.nsAccessHot = repeatMedian(func() float64 { return driveStats(1) })
	u.nsAccessSpr = repeatMedian(func() float64 { return driveStats(4096) })
	u.nsLocalHit = repeatMedian(func() float64 {
		d := driveCore(false)
		return (d.ns - d.events*u.nsEvent - d.samples*u.nsAccessHot) / d.requests
	})
	u.nsRemote = repeatMedian(func() float64 {
		d := driveCore(true)
		rest := d.ns - d.events*u.nsEvent - d.msgs*u.nsMsg - d.samples*u.nsAccessHot - d.localHits*u.nsLocalHit
		return rest / (d.requests - d.localHits)
	})
	u.nsHandoff = repeatMedian(func() float64 {
		ns, ev := driveHandoff(width)
		return ns - ev*u.nsEvent
	})
	u.runStartUS = repeatMedian(driveRunStart)
	u.encodeUS = repeatMedian(driveEncode)
	return u
}

func nop() {}

// driveEngine: a self-rescheduling cascade mixing fired and cancelled
// events, the machine model's pattern. Returns ns per executed event.
func driveEngine() float64 {
	const n = 200_000
	e := sim.NewEngine()
	k := 0
	var tick func()
	tick = func() {
		k++
		if k < n {
			e.After(3, tick)
			e.After(5, nop)
			e.After(7, nop).Cancel()
		}
	}
	e.At(0, tick)
	start := time.Now()
	executed := e.Run(0)
	return float64(time.Since(start)) / float64(executed)
}

// driveMesh: bursts of messages between pseudo-random node pairs, each
// burst drained. Returns ns per message and events per message.
func driveMesh() (ns, eventsPerMsg float64) {
	const bursts, burst = 10_000, 8
	cfg := gridConfig()
	e := sim.NewEngine()
	m := mesh.New(e, cfg.Mesh)
	nodes := cfg.Nodes
	short, long := m.Flits(8), m.Flits(8+arch.BlockBytes)
	deliver := func(any) {}
	rng := splitmix(7)
	start := time.Now()
	for b := 0; b < bursts; b++ {
		for i := 0; i < burst; i++ {
			src := mesh.NodeID(rng.intn(nodes))
			dst := mesh.NodeID((int(src) + 1 + rng.intn(nodes-1)) % nodes)
			flits := short
			if i&1 == 1 {
				flits = long
			}
			m.SendArg(src, dst, flits, deliver, nil)
		}
		for e.Step() {
		}
	}
	msgs := float64(m.Stats().Messages)
	return float64(time.Since(start)) / msgs, float64(e.EventsExecuted()) / msgs
}

// coreDrive is one protocol drive's totals.
type coreDrive struct {
	ns, requests, localHits, events, msgs, samples float64
}

// driveCore: the protocol with no processors and no goroutines. Every node
// chains requests through its Done callback. Contended, nodes alternate
// atomics on three hot lines (one per coherence policy, as the grids' bars
// use) with loads and stores over a spread of shared lines; uncontended,
// each node loads, stores and fetch_and_adds its own line, so after the
// first fill every request is a local hit.
func driveCore(contended bool) coreDrive {
	const perNode = 600
	cfg := gridConfig()
	e := sim.NewEngine()
	net := mesh.New(e, cfg.Mesh)
	sys := core.NewSystem(e, net, cfg)
	hot := [3]arch.Addr{0x1000, 0x1000 + 5*arch.BlockBytes, 0x1000 + 11*arch.BlockBytes}
	for i, p := range []core.Policy{core.PolicyINV, core.PolicyUPD, core.PolicyUNC} {
		sys.SetPolicy(hot[i], p)
	}
	spread := arch.Addr(0x10000)
	line := func(k int) arch.Addr { return spread + arch.Addr(k%64)*arch.BlockBytes }
	for n := 0; n < cfg.Nodes; n++ {
		n := n
		c := sys.Cache(mesh.NodeID(n))
		left := perNode
		var issue func()
		done := func(core.Result) {
			if left--; left > 0 {
				issue()
			}
		}
		issue = func() {
			k := perNode - left
			req := core.Request{Done: done}
			switch {
			case !contended:
				req.Addr = line(n)
				req.Op = [3]core.OpKind{core.OpLoad, core.OpStore, core.OpFetchAdd}[k%3]
				req.Val = 1
			case k%4 == 1:
				req.Op, req.Addr = core.OpLoad, line(n*7+k)
			case k%4 == 3:
				req.Op, req.Addr, req.Val = core.OpStore, line(n*3+k), arch.Word(k)
			default:
				req.Op, req.Addr, req.Val = core.OpFetchAdd, hot[(k/4+n)%3], 1
			}
			c.Issue(req)
		}
		e.At(0, issue)
	}
	start := time.Now()
	e.Run(0)
	cnt := sys.Counters()
	return coreDrive{
		ns:        float64(time.Since(start)),
		requests:  float64(cnt.Requests),
		localHits: float64(cnt.LocalHits),
		events:    float64(e.EventsExecuted()),
		msgs:      float64(net.Stats().Messages),
		samples:   float64(sys.Contention().Histogram().Total()),
	}
}

// driveHandoff: every processor loops on Compute(1), so each step is one
// proc/engine handoff plus one resume event. Like the grids, width machines
// run at once, one per sweep worker: a handoff readies a goroutine, and
// the scheduler's cost for that depends on whether the other processors
// are busy. Returns ns per handoff and events per handoff.
func driveHandoff(width int) (ns, events float64) {
	const perProc = 2000
	prog := func(p *machine.Proc) {
		for i := 0; i < perProc; i++ {
			p.Compute(1)
		}
	}
	ms := make([]*machine.Machine, width)
	for i := range ms {
		ms[i] = machine.New(gridConfig())
		ms[i].Run(prog) // grows the goroutine stacks the timed run reuses
	}
	durs := make([]time.Duration, width)
	var ev, handoffs float64
	for _, m := range ms {
		ev -= float64(m.Engine().EventsExecuted())
	}
	exper.Sweep(width, width, func(i int) {
		start := time.Now()
		ms[i].Run(prog)
		durs[i] = time.Since(start)
	})
	var total time.Duration
	for i, m := range ms {
		total += durs[i]
		ev += float64(m.Engine().EventsExecuted())
		handoffs += float64(perProc * m.Procs())
	}
	return float64(total) / handoffs, ev / handoffs
}

// driveRunStart: reset the slot's machine and run an empty program on all
// 16 processors. Returns us per run.
func driveRunStart() float64 {
	const runs = 300
	var s exper.MachineSlot
	cfg := gridConfig()
	empty := func(*machine.Proc) {}
	s.Machine(cfg).Run(empty)
	start := time.Now()
	for i := 0; i < runs; i++ {
		s.Machine(cfg).Run(empty)
	}
	return us(time.Since(start)) / runs
}

// driveStats: one tracked atomic access (contention Begin, write-run
// Access, contention End) from rotating processors over locs locations.
// Returns ns per access.
func driveStats(locs int) float64 {
	const n = 300_000
	ct := stats.NewContentionTracker()
	wr := stats.NewWriteRunTracker()
	start := time.Now()
	for i := 0; i < n; i++ {
		loc := stats.Location(0x1000 + (i%locs)*arch.BlockBytes)
		proc := i % 16
		ct.Begin(loc, proc)
		wr.Access(loc, proc, true)
		ct.End(loc, proc)
	}
	return float64(time.Since(start)) / n
}

// encodeSpec is the spec whose outcome the encode drive renders: a
// contended 16-processor counter run, a typical serve-zipf miss.
var encodeSpec = serve.Spec{App: "counter", Policy: "INV", Prim: "CAS", Procs: 16, Contention: 4, Rounds: 4}

// driveEncode: Outcome.Encode plus the gzip variant the cache fill
// computes. Returns us per outcome.
func driveEncode() float64 {
	const n = 400
	sp, err := encodeSpec.Normalize()
	if err != nil {
		panic(err) // a constant spec; rejecting it is a benchmark bug
	}
	var slot exper.MachineSlot
	o := serve.RunOn(sp, &slot)
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; i < n; i++ {
		b, err := o.Encode()
		if err != nil {
			panic(err) // encoding a report cannot fail short of a program bug
		}
		buf.Reset()
		zw.Reset(&buf)
		zw.Write(b)
		zw.Close()
	}
	return us(time.Since(start)) / n
}
