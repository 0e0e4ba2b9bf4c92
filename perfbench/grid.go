package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dsm/internal/apps"
	"dsm/internal/arch"
	"dsm/internal/exper"
	"dsm/internal/machine"
	"dsm/internal/report"
)

// synthScale is the grid-synth scale: the Figs 3-5 plan at 16 processors.
var synthScale = exper.RunOpts{Procs: 16, Rounds: 6}

// realScale sizes grid-real so that no application takes more than half
// the host time (Transitive Closure dominates at the figures' defaults).
var realScale = exper.RunOpts{Procs: 16, TCSize: 6, Wires: 320, Columns: 384}

// gridInputs is one grid workload's generated input: the points in
// execution order and what each must produce.
type gridInputs struct {
	points []exper.Point
	expect []gridExpect
}

// gridExpect is a point's independently computed expected output; zero
// fields are not checked.
type gridExpect struct {
	updates uint64 // synthetic apps: counter updates the pattern performs
	work    uint64 // real apps: wires routed, columns factored, reachable pairs
}

// synthInputs builds the Figs 3-5 plan (counter, TTS, MCS x 21 bars x the
// sharing patterns). The seed picks every point's simulation seed and the
// execution order.
func synthInputs(seed uint64) gridInputs {
	var pts []exper.Point
	for _, app := range []exper.App{exper.AppCounter, exper.AppTTS, exper.AppMCS} {
		pts = append(pts, exper.SyntheticPlan(app, synthScale).Points...)
	}
	return seedPoints(pts, seed)
}

// realInputs builds the Fig 6 grid: the three real applications under
// every bar, each with realSeeds distinct inputs so a run's cost averages
// over several graphs, wire lists and matrices.
func realInputs(seed uint64) gridInputs {
	var pts []exper.Point
	for _, bar := range exper.SyntheticBars() {
		for _, app := range exper.RealApps() {
			for k := 0; k < realSeeds; k++ {
				pts = append(pts, exper.Point{App: app, Bar: bar, Scale: realScale})
			}
		}
	}
	return seedPoints(pts, seed)
}

// realSeeds is how many inputs each (application, bar) pair runs.
const realSeeds = 2

func seedPoints(pts []exper.Point, seed uint64) gridInputs {
	rng := splitmix(seed)
	for i := range pts {
		pts[i].Seed = rng.next()>>1 | 1 // nonzero: zero selects the app default
	}
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	rng.shuffle(order)
	in := gridInputs{points: make([]exper.Point, len(pts)), expect: make([]gridExpect, len(pts))}
	for k, i := range order {
		in.points[k] = pts[i]
		in.expect[k] = expectFor(pts[i])
	}
	return in
}

// expectFor computes a point's expected output without the simulator.
func expectFor(p exper.Point) gridExpect {
	switch {
	case p.App.Synthetic():
		return gridExpect{updates: expectedUpdates(p.Pattern, p.Scale.Procs)}
	case p.App == exper.AppTClosure:
		return gridExpect{work: uint64(apps.TClosureReference(p.Scale.TCSize, p.Seed, 0))}
	case p.App == exper.AppLocusRoute:
		return gridExpect{work: uint64(p.Scale.Wires)}
	case p.App == exper.AppCholesky:
		return gridExpect{work: uint64(p.Scale.Columns)}
	}
	return gridExpect{}
}

// expectedUpdates is the counter updates a synthetic pattern performs:
// without contention one writer per round performing a write run whose
// lengths average WriteRun; with contention c writers per round.
func expectedUpdates(pat apps.Pattern, procs int) uint64 {
	c := min(max(pat.Contention, 1), procs)
	if c > 1 {
		return uint64(c * pat.Rounds)
	}
	a := math.Max(pat.WriteRun, 1)
	n := int(a)
	frac := a - float64(n)
	var total uint64
	for r := 0; r < pat.Rounds; r++ {
		total += uint64(n)
		if int(float64(r+1)*frac) > int(float64(r)*frac) {
			total++
		}
	}
	return total
}

func setupSynth(o options) (runner, error) { return newGrid("grid-synth", synthInputs(o.seed)) }
func setupReal(o options) (runner, error)  { return newGrid("grid-real", realInputs(o.seed)) }

// gridRun is a grid workload ready to measure.
type gridRun struct {
	name string
	in   gridInputs
	ref  []uint64 // per-point result digest from the first pass
}

func newGrid(name string, in gridInputs) (*gridRun, error) {
	if err := checkTable1(); err != nil {
		return nil, err
	}
	return &gridRun{name: name, in: in}, nil
}

// checkTable1 compares Table 1's measured serialized-message counts with
// the paper's: the one reference result in the repository.
func checkTable1() error {
	for _, row := range exper.Table1Par(1) {
		if row.Got != row.Paper {
			return fmt.Errorf("Table 1 %q: measured %d messages, paper %d", row.Case, row.Got, row.Paper)
		}
	}
	return nil
}

// pointRec is one executed point.
type pointRec struct {
	host   time.Duration // Machine + RunOn + Collect
	digest uint64        // simulated results
	counts counts
	slot   *exper.MachineSlot
	err    string
}

// gridPass runs every point once across width workers. With tr non-nil it
// records the point's spans: MachineSlot.Machine, Point.RunOn and
// report.Collect under a root "point" span.
func gridPass(in gridInputs, width int, tr *tracer, pass uint64, recs []pointRec) time.Duration {
	start := time.Now()
	exper.SweepSlots(len(in.points), width, func(s *exper.MachineSlot, i int) {
		p := in.points[i]
		t0 := time.Now()
		m := s.Machine(exper.MachineConfig(p.Scale, p.Bar))
		t1 := time.Now()
		res := p.RunOn(m)
		t2 := time.Now()
		rep := report.Collect(m)
		t3 := time.Now()

		r := &recs[i]
		r.host = t3.Sub(t0)
		r.slot = s
		r.counts = pointCounts(m, res, rep)
		r.digest = resultDigest(res, rep)
		r.err = checkPoint(p, in.expect[i], res, simulatedCounter(p, m))
		if tr != nil {
			id := pass<<32 | uint64(i)
			tr.add(
				span{ID: id, Name: "point", Start: tr.at(t0), End: tr.at(t3)},
				span{ID: id, Name: "exper.slot", Parent: "point", Start: tr.at(t0), End: tr.at(t1)},
				span{ID: id, Name: "exper.run", Parent: "point", Start: tr.at(t1), End: tr.at(t2)},
				span{ID: id, Name: "report.collect", Parent: "point", Start: tr.at(t2), End: tr.at(t3)},
			)
		}
	})
	return time.Since(start)
}

// simulatedCounter reads a synthetic point's final counter value out of
// the simulated memory after the run. Every synthetic app allocates its
// counter last, in a block of its own, so the counter is the block before
// the machine's next allocation. Other apps return 0. The slot resets the
// allocation cursor before its next point, so the probe allocation leaves
// no trace.
func simulatedCounter(p exper.Point, m *machine.Machine) uint64 {
	if !p.App.Synthetic() {
		return 0
	}
	return uint64(m.Peek(m.Alloc(arch.BlockBytes) - arch.BlockBytes))
}

// checkPoint compares a point's results with its expectation. For the
// synthetic apps both the app's Go-side update count and the counter value the
// simulated processors left in memory must equal the plan's count: a lost
// update, a broken atomic or a broken lock leaves the counter short.
func checkPoint(p exper.Point, e gridExpect, res exper.Result, counter uint64) string {
	if e.updates != 0 && res.Updates != e.updates {
		return fmt.Sprintf("%s %s %s: %d updates, plan expects %d", p.App, p.Bar.Label, p.Pattern, res.Updates, e.updates)
	}
	if e.updates != 0 && counter != e.updates {
		return fmt.Sprintf("%s %s %s: simulated counter reads %d, plan expects %d", p.App, p.Bar.Label, p.Pattern, counter, e.updates)
	}
	if e.work != 0 && res.Work != e.work {
		return fmt.Sprintf("%s %s seed %d: work %d, reference %d", p.App, p.Bar.Label, p.Seed, res.Work, e.work)
	}
	if res.Elapsed == 0 {
		return fmt.Sprintf("%s %s: zero elapsed cycles", p.App, p.Bar.Label)
	}
	return ""
}

// pointCounts reads the exact per-layer counts of one run from public
// accessors.
func pointCounts(m *machine.Machine, res exper.Result, rep *report.Report) counts {
	c := counts{points: 1, events: m.Engine().EventsExecuted(), cycles: res.Elapsed}
	for i := 0; i < m.Procs(); i++ {
		c.barriers += m.ProcStats(i).Barriers
	}
	c.addReport(rep)
	return c
}

// resultDigest hashes everything a point simulated: headline numbers and
// every report counter.
func resultDigest(res exper.Result, rep *report.Report) uint64 {
	h := newFNV()
	h.add(res.Elapsed, res.Updates, res.Work, math.Float64bits(res.AvgCycles))
	p, n := rep.Protocol, rep.Network
	h.add(p.Requests, p.LocalHits, p.Naks, p.Retries, p.Invals, p.Updates, p.Writebacks, p.SCFailLocal)
	h.add(n.Messages, n.LocalMsgs, n.Flits, n.HopsTotal, n.InjectWait, n.EjectWait, n.LinkWait)
	h.add(rep.Memory.Accesses, rep.Memory.QueueWait, rep.Cache.Evictions, rep.Cache.DirtyEvictions)
	h.add(rep.ProcOps, rep.MemoryCycles, rep.ComputeCycles, rep.BarrierCycles)
	h.add(rep.Contention.Total(), math.Float64bits(rep.Contention.Mean()), rep.WriteRunTotal, math.Float64bits(rep.WriteRunMean))
	for _, c := range rep.Chains {
		h.add(c.Count, uint64(c.Max), math.Float64bits(c.Mean))
	}
	return uint64(h)
}

// foldPass folds one pass into the outcome: checks every point against
// its expectation and the first pass's digest, and returns the pass's
// counts and per-point host times.
func (g *gridRun) foldPass(out *outcome, recs []pointRec) (counts, []float64) {
	var total counts
	hosts := make([]float64, len(recs))
	first := g.ref == nil
	if first {
		g.ref = make([]uint64, len(recs))
	}
	for i := range recs {
		r := &recs[i]
		out.attempted++
		switch {
		case r.err != "":
			out.fail("%s", r.err)
		case first:
			g.ref[i] = r.digest
		case r.digest != g.ref[i]:
			out.fail("%s point %d: results differ from the first pass", g.name, i)
		}
		total.add(r.counts)
		hosts[i] = ms(r.host)
	}
	return total, hosts
}

// slotStats sums the distinct worker slots' build/reset counters.
func slotStats(recs []pointRec) (builds, resets uint64) {
	seen := map[*exper.MachineSlot]bool{}
	for _, r := range recs {
		if r.slot != nil && !seen[r.slot] {
			seen[r.slot] = true
			b, rs := r.slot.Stats()
			builds += b
			resets += rs
		}
	}
	return builds, resets
}

func (g *gridRun) run(o options) *outcome {
	out := newOutcome()
	recs := make([]pointRec, len(g.in.points))
	// Warm-up pass: fills the slots and the allocator, and pins the
	// reference digests every later pass must reproduce.
	gridPass(g.in, o.width, nil, 0, recs)
	passCounts, _ := g.foldPass(out, recs)
	builds, resets := slotStats(recs)

	var (
		hosts             []float64
		ops               uint64
		wall              time.Duration
		plain, traced     []float64 // pass wall seconds, for the overhead
		tr                *tracer
		passes, tracedRun uint64
	)
	if o.traced {
		tr = newTracer()
	}
	rss := startRSS()
	for start := time.Now(); passes < minPasses(o) || time.Since(start) < o.budget(); passes++ {
		var ptr *tracer
		if tr != nil && passes%2 == 1 {
			ptr = tr
			tracedRun++
		}
		freshHeap()
		d := gridPass(g.in, o.width, ptr, passes+1, recs)
		c, h := g.foldPass(out, recs)
		if c != passCounts {
			out.fail("%s pass %d: layer counts differ from the first pass", g.name, passes+1)
		}
		if ptr != nil {
			traced = append(traced, d.Seconds())
			continue
		}
		plain = append(plain, d.Seconds())
		hosts = append(hosts, h...)
		ops += c.procOps
		wall += d
	}
	out.rssMB = rss.finish()
	sort.Float64s(hosts)
	rate := float64(ops) / wall.Seconds()
	p50, p99 := quantile(hosts, 0.5), quantile(hosts, 0.99)
	out.e2e.set("throughput_per_s", rate, "1/s")
	out.e2e.set("p50_ms", p50, "ms")
	out.e2e.set("p99_ms", p99, "ms")
	out.detail.set("sim_ops_per_s", rate, "1/s")
	out.detail.set("point_p50_ms", p50, "ms")
	out.detail.set("point_p99_ms", p99, "ms")
	out.detail.set("points_timed", float64(len(hosts)), "count")
	out.detail.set("passes_timed", float64(len(plain)), "count")

	if tr != nil {
		st := tr.selfTimes()
		l := ledger{counts: passCounts, spans: st, kind: g.name}
		l.slotReuse = float64(resets) / float64(max(builds+resets, 1))
		l.overhead = median(traced)/median(plain) - 1
		l.measured = st["point"].Total / time.Duration(max(tracedRun, 1))
		finishLedger(out, o, &l, tr)
	}
	return out
}

// miniGrid is a traced calibration over every ninth grid-synth point,
// giving the exper and report span costs (and the slot reuse ratio) to
// workloads that have no grid points of their own.
func miniGrid(o options) (map[string]*spanStat, float64) {
	full := synthInputs(o.seed)
	var in gridInputs
	for i := 0; i < len(full.points); i += 9 {
		in.points = append(in.points, full.points[i])
		in.expect = append(in.expect, full.expect[i])
	}
	recs := make([]pointRec, len(in.points))
	tr := newTracer()
	for pass := uint64(1); pass <= 3; pass++ {
		gridPass(in, o.width, tr, pass, recs)
	}
	builds, resets := slotStats(recs)
	return tr.selfTimes(), float64(resets) / float64(max(builds+resets, 1))
}
