package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"dsm/internal/proto"
	"dsm/internal/proto/mc"
)

// mcCase is one model-checking instance and what its verdict must show.
type mcCase struct {
	name   string
	cfg    mc.Config
	window bool // the documented UPD stale-read window must be found
}

// mcCases builds the fixed 3-node config set: thirteen configs, an odd
// count so the median check time is one config's rather than a jump
// between two. The seed picks the store,
// fetch_and_add and store_conditional operands (distinct nonzero values,
// so the explored state graph keeps its shape) and the checking order.
func mcCases(seed uint64) []mcCase {
	rng := splitmix(seed ^ 0x3c3c)
	vals := make([]int, 0, 8)
	for len(vals) < cap(vals) {
		v := 2 + rng.intn(98)
		dup := false
		for _, u := range vals {
			dup = dup || u == v
		}
		if !dup {
			vals = append(vals, v)
		}
	}
	st := func(v int) mc.OpSpec { return mc.OpSpec{Op: proto.OpStore, Val: v} }
	fa := func(d int) mc.OpSpec { return mc.OpSpec{Op: proto.OpFetchAdd, Val: d} }
	cas := func(nv int) mc.OpSpec { return mc.OpSpec{Op: proto.OpCAS, Val: 0, Val2: nv} }
	sc := func(v int) mc.OpSpec { return mc.OpSpec{Op: proto.OpSC, Val: v, Val2: mc.UseLLSerial} }
	ld := mc.OpSpec{Op: proto.OpLoad}
	ll := mc.OpSpec{Op: proto.OpLL}
	p := func(ops ...mc.OpSpec) []mc.OpSpec { return ops }
	delta := 1 + rng.intn(3)
	base := func(pol proto.Policy, progs ...[]mc.OpSpec) mc.Config {
		return mc.Config{Nodes: 3, Policy: pol, CAS: proto.CASPlain, Resv: mc.ResvBits, ResvLimit: 4, Progs: progs}
	}
	withPre := func(c mc.Config, pre ...int) mc.Config { c.PreShare = pre; return c }
	withCAS := func(c mc.Config, v proto.CASVariant) mc.Config { c.CAS = v; return c }
	withResv := func(c mc.Config, r mc.Resv, limit int) mc.Config { c.Resv, c.ResvLimit = r, limit; return c }
	casProgs := [][]mc.OpSpec{p(cas(vals[0]), ld), p(cas(vals[1]), ld), p(cas(vals[2]), ld)}
	llsc := [][]mc.OpSpec{p(ll, sc(vals[3])), p(ll, sc(vals[4])), p(ll, sc(vals[5]))}

	cases := []mcCase{
		{"inv-contention", withPre(base(proto.PolicyINV, p(st(vals[0])), p(fa(delta)), p(ld, ld)), 2), false},
		{"inv-contention-2ops", withPre(base(proto.PolicyINV, p(st(vals[0]), ld), p(fa(delta), ld), p(ld, ld)), 2), false},
		{"inv-fap-3x2", base(proto.PolicyINV, p(fa(delta), ld), p(fa(delta), ld), p(fa(delta), ld)), false},
		{"upd-read-window", withPre(base(proto.PolicyUPD, p(st(vals[6])), p(ld), p(ld)), 1, 2), true},
		{"upd-read-window-2ops", withPre(base(proto.PolicyUPD, p(st(vals[6]), ld), p(ld, ld), p(ld, ld)), 1, 2), true},
		{"inv-cas-race", base(proto.PolicyINV, casProgs...), false},
		{"upd-cas-race", base(proto.PolicyUPD, casProgs...), false},
		{"invd-cas-race", withCAS(base(proto.PolicyINV, casProgs...), proto.CASDeny), false},
		{"invs-cas-race", withCAS(base(proto.PolicyINV, casProgs...), proto.CASShare), false},
		{"unc-llsc-bits", base(proto.PolicyUNC, llsc...), false},
		{"upd-llsc-limited", withResv(base(proto.PolicyUPD, llsc...), mc.ResvLimited, 1), false},
		{"inv-llsc", base(proto.PolicyINV, llsc...), false},
		{"inv-mixed-aux", base(proto.PolicyINV,
			p(st(vals[7]), mc.OpSpec{Op: proto.OpDropCopy}),
			p(mc.OpSpec{Op: proto.OpLoadExclusive}, ld),
			p(ld, mc.OpSpec{Op: proto.OpTestAndSet})), false},
	}
	order := make([]int, len(cases))
	for i := range order {
		order[i] = i
	}
	rng.shuffle(order)
	out := make([]mcCase, len(cases))
	for k, i := range order {
		out[k] = cases[i]
	}
	return out
}

// verdict checks one report against the case's expectations.
func (c mcCase) verdict(rep mc.Report) string {
	if u := rep.Unexpected(); len(u) > 0 {
		return fmt.Sprintf("mc %s: unexpected violation %s", c.name, u[0].Kind)
	}
	if rep.Terminals == 0 {
		return fmt.Sprintf("mc %s: no terminal state reached", c.name)
	}
	if c.window {
		found := false
		for _, v := range rep.Violations {
			found = found || (v.Kind == mc.KindStaleRead && v.Expected)
		}
		if !found {
			return fmt.Sprintf("mc %s: UPD stale-read window not found (%d states)", c.name, rep.States)
		}
	}
	return ""
}

func setupMC(o options) (runner, error) {
	if err := checkTable1(); err != nil {
		return nil, err
	}
	return &mcRun{cases: mcCases(o.seed)}, nil
}

type mcRun struct {
	cases []mcCase
	ref   []int // states per case from the first pass
}

// mcPass checks every case once, in order, recording a "mc.check" span per
// case when tr is non-nil, and returns the explored counts and the pass's
// host time less its collections. A collection before each check, outside
// the pass's time, starts every check from the same heap, so neither its
// time nor the pass's peak memory depends on which check ran before it,
// and the seed's order changes neither.
func mcPass(cases []mcCase, tr *tracer, pass uint64, states []int, hosts []time.Duration, verdicts []string) (counts, time.Duration) {
	var (
		c  counts
		gc time.Duration
	)
	start := time.Now()
	for i, k := range cases {
		g := time.Now()
		runtime.GC()
		t0 := time.Now()
		gc += t0.Sub(g)
		rep := mc.Check(k.cfg)
		t1 := time.Now()
		hosts[i] = t1.Sub(t0)
		states[i] = rep.States
		verdicts[i] = k.verdict(rep)
		c.mcStates += uint64(rep.States)
		c.mcTerminals += uint64(rep.Terminals)
		if tr != nil {
			tr.add(span{ID: pass<<32 | uint64(i), Name: "mc.check", Tag: k.name, Start: tr.at(t0), End: tr.at(t1)})
		}
	}
	return c, time.Since(start) - gc
}

func (r *mcRun) fold(out *outcome, states []int, verdicts []string) {
	first := r.ref == nil
	if first {
		r.ref = append([]int(nil), states...)
	}
	for i, v := range verdicts {
		out.attempted++
		switch {
		case v != "":
			out.fail("%s", v)
		case !first && states[i] != r.ref[i]:
			out.fail("mc %s: %d states, first pass explored %d", r.cases[i].name, states[i], r.ref[i])
		}
	}
}

func (r *mcRun) run(o options) *outcome {
	out := newOutcome()
	n := len(r.cases)
	states, verdicts, hosts := make([]int, n), make([]string, n), make([]time.Duration, n)

	// The checks run with the collector at GOGC 400 rather than the
	// default 100. mc.Check allocates a string key per explored state; at
	// 100 the collector took a sixth of the check time on a two-vCPU VM,
	// and that share moved with the load on the other vCPU, which runs the
	// mark worker, so the check times of runs with the same inputs spread
	// more than any other workload's. At 400 it runs a quarter as often.
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	// Warm-up pass: pins the per-case state counts.
	passCounts, _ := mcPass(r.cases, nil, 0, states, hosts, verdicts)
	r.fold(out, states, verdicts)

	var (
		tr            *tracer
		unit          []float64
		plain, traced []float64
		rates         []float64
		passes        uint64
	)
	if o.traced {
		tr = newTracer()
	}
	// The check order is the seed's, so one second holds different checks
	// in different runs; each pass holds all of them.
	rss := startRSSPerCut()
	for start := time.Now(); passes < minPasses(o) || time.Since(start) < o.budget(); passes++ {
		var ptr *tracer
		if tr != nil && passes%2 == 1 {
			ptr = tr
		}
		freshHeap()
		c, d := mcPass(r.cases, ptr, passes+1, states, hosts, verdicts)
		rss.cut()
		r.fold(out, states, verdicts)
		if c != passCounts {
			out.fail("mc pass %d: explored counts differ from the first pass", passes+1)
		}
		if ptr != nil {
			traced = append(traced, d.Seconds())
			continue
		}
		plain = append(plain, d.Seconds())
		rates = append(rates, float64(c.mcStates)/d.Seconds())
		for _, h := range hosts {
			unit = append(unit, ms(h))
		}
	}
	out.rssMB = rss.finish()
	sort.Float64s(unit)
	// The median pass's rate, so a pass a neighbour slowed does not count.
	rate := median(rates)
	out.e2e.set("throughput_per_s", rate, "1/s")
	out.e2e.set("p50_ms", quantile(unit, 0.5), "ms")
	out.e2e.set("p99_ms", quantile(unit, 0.99), "ms")
	out.detail.set("check_s", median(plain), "s")
	out.detail.set("states_per_s", rate, "1/s")
	out.detail.set("checks_timed", float64(len(unit)), "count")

	if tr != nil {
		st := tr.selfTimes()
		l := ledger{kind: "mc-exhaust", counts: passCounts, spans: st}
		l.overhead = median(traced)/median(plain) - 1
		l.measured = time.Duration(median(traced) * float64(time.Second))
		finishLedger(out, o, &l, tr)
	}
	return out
}

// miniMC is a traced calibration over the three smallest cases, giving the
// model-checker costs to workloads that run no checks of their own.
func miniMC(o options) (map[string]*spanStat, counts) {
	cases := mcCases(o.seed)
	var small []mcCase
	for _, c := range cases {
		switch c.name {
		case "upd-read-window", "upd-read-window-2ops", "inv-contention":
			small = append(small, c)
		}
	}
	n := len(small)
	states, verdicts, hosts := make([]int, n), make([]string, n), make([]time.Duration, n)
	tr := newTracer()
	var c counts
	for pass := uint64(1); pass <= 3; pass++ {
		c, _ = mcPass(small, tr, pass, states, hosts, verdicts)
	}
	return tr.selfTimes(), c
}
